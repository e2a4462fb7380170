package tensor_test

import (
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// FuzzMatMulKernels drives the blocked kernels — all three float64
// products and the float32 kernel set — against their scalar references
// on fuzzer-chosen shapes and data. The property under test is the
// strongest one the kernels claim: bit-identical output, not tolerance.
// The float64 kernels must reproduce the naive serial loops exactly
// (the determinism contract that lets Parallelism stay outside the
// content-address), and the float32 kernels must reproduce the scalar
// float32 loops exactly (same loop order, same zero-skip semantics).
// The data holds ±0, subnormals, ±Inf and NaN (randEdgeMatrix), and
// any NaN matches any NaN.
//
// Shapes are folded into ranges that cross every blocking boundary: the
// 2×4 register strips' ragged tails on all axes, the SIMD tiles' 4-row
// groups and 8- or 16-column widths, the serial-vs-pool
// work threshold, and the per-worker row split. The checked-in corpus
// under testdata/fuzz pins those edges; CI additionally runs a
// fixed-budget fuzz smoke so new mutations keep probing them.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(1), uint16(1))
	f.Add(int64(2), uint16(9), uint16(8), uint16(7))
	f.Add(int64(3), uint16(2), uint16(4), uint16(8))
	f.Add(int64(4), uint16(15), uint16(2), uint16(17))
	f.Add(int64(5), uint16(11), uint16(513), uint16(520))
	f.Add(int64(6), uint16(24), uint16(300), uint16(875))
	f.Fuzz(func(t *testing.T, seed int64, m16, k16, n16 uint16) {
		m := int(m16)%64 + 1
		k := int(k16)%768 + 1
		n := int(n16)%640 + 1
		r := rand.New(rand.NewSource(seed))

		a := randEdgeMatrix(r, m, k)
		b := randEdgeMatrix(r, k, n)
		want, err := tensor.MatMulSerial(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tensor.MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmul", got, want)

		at := randEdgeMatrix(r, k, m) // (k,m) for aᵀ@b
		wantATB, err := tensor.MatMulATBSerial(at, b)
		if err != nil {
			t.Fatal(err)
		}
		gotATB, err := tensor.MatMulATB(at, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulATB", gotATB, wantATB)

		bt := randEdgeMatrix(r, n, k) // (n,k) for a@bᵀ
		wantABT, err := tensor.MatMulABTSerial(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		gotABT, err := tensor.MatMulABT(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulABT", gotABT, wantABT)

		a32 := randEdgeF32(r, m*k)
		b32 := randEdgeF32(r, k*n)
		out32 := make([]float32, m*n)
		tensor.MatMulF32(out32, a32, b32, m, k, n)
		f32BitsEqual(t, "matmulF32", out32, mmRefF32(a32, b32, m, k, n))

		at32 := randEdgeF32(r, k*m)
		tensor.MatMulATBF32(out32, at32, b32, k, m, n)
		f32BitsEqual(t, "matmulATBF32", out32, atbRefF32(at32, b32, k, m, n))

		bt32 := randEdgeF32(r, n*k)
		tensor.MatMulABTF32(out32, a32, bt32, m, k, n)
		f32BitsEqual(t, "matmulABTF32", out32, abtRefF32(a32, bt32, m, k, n))
	})
}
