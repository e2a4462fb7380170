package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// randMatrix fills an (r,c) tensor with normal samples, sprinkling exact
// zeros (and a negative zero) so the kernels' zero-skip paths and FP
// edge cases are exercised.
func randMatrix(r *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.Randn(r, 1, rows, cols)
	d := t.Data()
	for i := range d {
		switch r.Intn(8) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// randEdgeMatrix is randMatrix plus the values the zero gate exists
// for: about one entry in sixteen is subnormal, and one to three
// entries are ±Inf or NaN. A kernel that adds 0·b instead of skipping
// the term turns a ±0 a element against an Inf/NaN b element into NaN,
// so only data like this can tell a gated kernel from an ungated one.
// The specials are few so most outputs stay finite.
func randEdgeMatrix(r *rand.Rand, rows, cols int) *tensor.Tensor {
	t := randMatrix(r, rows, cols)
	d := t.Data()
	for i := range d {
		if d[i] != 0 && r.Intn(16) == 0 {
			d[i] *= 1e-310 // subnormal
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for n := 1 + r.Intn(3); n > 0 && len(d) > 0; n-- {
		d[r.Intn(len(d))] = specials[r.Intn(len(specials))]
	}
	return t
}

// bitsEqual requires equal bits element by element, except that any
// NaN matches any NaN: amd64 keeps the payload of the first operand of
// a NaN+NaN or NaN·NaN and Go does not fix operand order, so payloads
// are not part of the kernels' contract.
func bitsEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v vs %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if math.IsNaN(gd[i]) && math.IsNaN(wd[i]) {
			continue
		}
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: element %d = %x, want %x (%g vs %g)",
				name, i, math.Float64bits(gd[i]), math.Float64bits(wd[i]), gd[i], wd[i])
		}
	}
}

// kernelShapes covers the degenerate and non-multiple-of-tile shapes the
// blocked kernels must handle: 1×N, N×1, tiny, odd, and larger than one
// tile on every axis.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 7},
	{1, 300, 1},
	{3, 5, 4},
	{31, 17, 29},
	{5, 129, 300}, // wide/odd k and n: panels narrower than their rows
	{130, 129, 257},
	{64, 64, 64},
	// Strip-edge shapes: one off either side of the 2-row × 4-column
	// register strips, plus large panels with ragged tails on both axes.
	{4, 4, 4},
	{8, 8, 8},
	{9, 8, 7},
	{7, 9, 8},
	{8, 7, 9},
	{12, 5, 12},
	{16, 3, 16},
	{15, 2, 17},
	{11, 513, 520}, // large panels with odd row count
	{24, 300, 875}, // large panels with n%4 ≠ 0 tails
	// SIMD tile edges: 4-row groups with 1–3 rows left over, W=8 (f64)
	// and W=16 (f32) column tiles with 1, 7, 9 or 15 columns left over,
	// and k of 0, 1, 2 and 33.
	{5, 33, 17},  // m%4=1; n%8=1, n%16=1
	{6, 2, 23},   // m%4=2; n%8=7, n%16=7
	{7, 1, 25},   // m%4=3; n%8=1, n%16=9
	{13, 33, 31}, // m%4=1; n%8=7, n%16=15
	{10, 0, 41},  // k=0; n%8=1, n%16=9
	{4, 0, 16},   // k=0 over whole tiles
	{11, 2, 47},  // m%4=3; n%8=7, n%16=15
	{9, 1, 9},    // one tile plus one column
	{8, 33, 15},  // whole row groups, f64 tile plus 7, no f32 tile
	// The model's first layer (In=1024 → Hidden=64, batch 32): the
	// forward product, and with aᵀ@b the weight gradient (k = 32).
	{32, 1024, 64},
	{1024, 32, 64},
}

// TestKernelsBitIdenticalToSerial is the core determinism property: the
// blocked (and, above the threshold, parallel) kernels must reproduce the
// naive serial reference bit for bit across odd shapes, on data holding
// ±0, subnormals, ±Inf and NaN.
func TestKernelsBitIdenticalToSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, s := range kernelShapes {
		a := randEdgeMatrix(r, s.m, s.k)
		b := randEdgeMatrix(r, s.k, s.n)

		want, err := tensor.MatMulSerial(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tensor.MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmul", got, want)

		at := randEdgeMatrix(r, s.k, s.m) // (k,m) for aᵀ@b
		wantATB, err := tensor.MatMulATBSerial(at, b)
		if err != nil {
			t.Fatal(err)
		}
		gotATB, err := tensor.MatMulATB(at, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulATB", gotATB, wantATB)

		bt := randEdgeMatrix(r, s.n, s.k) // (n,k) for a@bᵀ
		wantABT, err := tensor.MatMulABTSerial(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		gotABT, err := tensor.MatMulABT(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulABT", gotABT, wantABT)
	}
}

// TestKernelsSplitInvariant proves the result does not depend on how rows
// are partitioned across workers, including degenerate and uneven splits —
// the property that makes Parallelism a pure scheduling knob.
func TestKernelsSplitInvariant(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{37, 41, 23},   // 2×4 strips with ragged tails on both axes
		{37, 512, 520}, // large streamed b panel (k·n past L2)
		{45, 33, 41},   // SIMD tiles cut by splits that are not multiples of 4
	} {
		t.Run("", func(t *testing.T) { testSplitInvariant(t, s.m, s.k, s.n) })
	}
}

// splitCases are the row partitions the split tests apply. Most bounds
// are not multiples of 4, so panels start and end inside the SIMD
// tiles' 4-row groups and split a group between Go strips and tiles.
func splitCases(m int) [][]int {
	return [][]int{
		{0, m},
		{0, 1, m},
		{0, m - 1, m},
		{0, 5, 11, 12, 30, m},
		{0, 3, 6, 13, 14, 27, m},
		{0, 2, 9, 15, 21, m - 2, m},
		func() []int { // one row per task
			s := make([]int, m+1)
			for i := range s {
				s[i] = i
			}
			return s
		}(),
	}
}

func testSplitInvariant(t *testing.T, m, k, n int) {
	r := rand.New(rand.NewSource(12))
	a := randEdgeMatrix(r, m, k)
	b := randEdgeMatrix(r, k, n)
	at := randEdgeMatrix(r, k, m)
	bt := randEdgeMatrix(r, n, k)

	wantMM, _ := tensor.MatMulSerial(a, b)
	wantATB, _ := tensor.MatMulATBSerial(at, b)
	wantABT, _ := tensor.MatMulABTSerial(a, bt)
	for _, bounds := range splitCases(m) {
		got, err := tensor.MatMulWithSplits(a, b, bounds)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmul split", got, wantMM)
		got, err = tensor.MatMulATBWithSplits(at, b, bounds)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulATB split", got, wantATB)
		got, err = tensor.MatMulABTWithSplits(a, bt, bounds)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "matmulABT split", got, wantABT)
	}
}

// TestSIMDTilesMatchGoStrips compares the production panels against the
// Go strips alone on random shapes in both dtypes, with edge-value data.
// On a CPU without AVX2 both sides run the strips and the test is
// trivially true; the shape table and the fuzzer check both against the
// scalar references either way.
func TestSIMDTilesMatchGoStrips(t *testing.T) {
	if !tensor.SIMD {
		t.Log("no AVX2 on this CPU: panels and strips are the same code")
	}
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		m, k, n := 1+r.Intn(24), r.Intn(40), 1+r.Intn(72)
		a := randEdgeMatrix(r, m, k).Data()
		b := randEdgeMatrix(r, k, n).Data()
		at := randEdgeMatrix(r, k, m).Data()
		panel, strips := tensor.MatMulPanelAndStrips(a, b, m, k, n)
		bitsEqual(t, "matmul tiles", tensor.MustFromSlice(panel, m, n), tensor.MustFromSlice(strips, m, n))
		panel, strips = tensor.MatMulATBPanelAndStrips(at, b, k, m, n)
		bitsEqual(t, "matmulATB tiles", tensor.MustFromSlice(panel, m, n), tensor.MustFromSlice(strips, m, n))

		a32, b32, at32 := randEdgeF32(r, m*k), randEdgeF32(r, k*n), randEdgeF32(r, k*m)
		p32, s32 := tensor.MatMulPanelAndStrips(a32, b32, m, k, n)
		f32BitsEqual(t, "matmulF32 tiles", p32, s32)
		p32, s32 = tensor.MatMulATBPanelAndStrips(at32, b32, k, m, n)
		f32BitsEqual(t, "matmulATBF32 tiles", p32, s32)
	}
}

// TestMatMulIntoVariants checks the Into kernels against their allocating
// forms, including that a dirty reused output buffer is fully overwritten.
func TestMatMulIntoVariants(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const m, k, n = 9, 33, 14
	a := randMatrix(r, m, k)
	b := randMatrix(r, k, n)
	at := randMatrix(r, k, m)
	bt := randMatrix(r, n, k)

	dirty := func() *tensor.Tensor { return tensor.Full(999, m, n) }

	out := dirty()
	if err := tensor.MatMulInto(out, a, b); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.MatMul(a, b)
	bitsEqual(t, "matmulinto", out, want)

	out = dirty()
	if err := tensor.MatMulATBInto(out, at, b); err != nil {
		t.Fatal(err)
	}
	want, _ = tensor.MatMulATB(at, b)
	bitsEqual(t, "matmulATBinto", out, want)

	out = dirty()
	if err := tensor.MatMulABTInto(out, a, bt); err != nil {
		t.Fatal(err)
	}
	want, _ = tensor.MatMulABT(a, bt)
	bitsEqual(t, "matmulABTinto", out, want)

	// Wrong output shape must be rejected, not silently written.
	bad := tensor.New(m+1, n)
	if err := tensor.MatMulInto(bad, a, b); err == nil {
		t.Fatal("MatMulInto accepted wrong out shape")
	}
	if err := tensor.MatMulATBInto(bad, at, b); err == nil {
		t.Fatal("MatMulATBInto accepted wrong out shape")
	}
	if err := tensor.MatMulABTInto(bad, a, bt); err == nil {
		t.Fatal("MatMulABTInto accepted wrong out shape")
	}
}

func TestAddScaledInto(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := tensor.MustFromSlice([]float64{10, 20, 30, 40}, 2, 2)
	dst := tensor.New(2, 2)
	if err := tensor.AddScaledInto(dst, a, 0.5, b); err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 12, 18, 24}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, v, want[i])
		}
	}
	// Aliasing dst==a is the in-place axpy.
	if err := tensor.AddScaledInto(a, a, 1, b); err != nil {
		t.Fatal(err)
	}
	if a.Data()[3] != 44 {
		t.Fatalf("aliased axpy = %v", a.Data())
	}
	if err := tensor.AddScaledInto(dst, a, 1, tensor.New(4)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestApplyInto(t *testing.T) {
	src := tensor.MustFromSlice([]float64{-1, 0, 2}, 3)
	dst := tensor.Full(7, 3)
	relu := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	if err := tensor.ApplyInto(dst, src, relu); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 2}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, v, want[i])
		}
	}
	if src.Data()[0] != -1 {
		t.Fatal("ApplyInto mutated src")
	}
	if err := tensor.ApplyInto(dst, tensor.New(4), relu); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestBinaryOpShapeChecks covers the Dot/SquaredDistance fix: equal
// element counts with different shapes must be rejected, consistently
// with the other binary ops.
func TestBinaryOpShapeChecks(t *testing.T) {
	a := tensor.New(2, 3)
	b := tensor.New(3, 2)
	if _, err := tensor.Dot(a, b); err == nil {
		t.Fatal("Dot accepted (2,3) vs (3,2)")
	}
	if _, err := tensor.SquaredDistance(a, b); err == nil {
		t.Fatal("SquaredDistance accepted (2,3) vs (3,2)")
	}
	if _, err := tensor.CosineSimilarity(a, b); err == nil {
		t.Fatal("CosineSimilarity accepted (2,3) vs (3,2)")
	}
	if _, err := tensor.Dot(tensor.New(2, 3), tensor.New(2, 3)); err != nil {
		t.Fatal(err)
	}
}
