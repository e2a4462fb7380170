//go:build !amd64

package tensor

// simd is false off amd64: the Go strips in microkernel.go are the
// only kernels.
const simd = false

func tile4[T number](a, b, out *T, k, rs, ps, n int) {
	panic("tensor: SIMD tile called without SIMD support")
}
