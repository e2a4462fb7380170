package tensor

import "unsafe"

// simd reports whether this CPU and OS run the AVX2 register tiles in
// microkernel_amd64.s. It is decided once, from CPUID and XGETBV only:
// the CPU must advertise AVX (CPUID.1:ECX bit 28) and OSXSAVE (bit 27),
// the OS must save the xmm and ymm state (XCR0 bits 1 and 2), and the
// CPU must advertise AVX2 (CPUID.7.0:EBX bit 5).
var simd = hasAVX2()

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// tile4 runs the dtype's AVX2 tile: out[r·n+c] = Σ_p a[r·rs+p·ps]·b[p·n+c]
// for r < 4 and c < 64/sizeof(T), in ascending p. It checks nothing;
// the caller proves every address in bounds and k ≥ 1.
func tile4[T number](a, b, out *T, k, rs, ps, n int) {
	if unsafe.Sizeof(*a) == 8 {
		tile4x8((*float64)(unsafe.Pointer(a)), (*float64)(unsafe.Pointer(b)),
			(*float64)(unsafe.Pointer(out)), k, rs, ps, n)
		return
	}
	tile4x16f32((*float32)(unsafe.Pointer(a)), (*float32)(unsafe.Pointer(b)),
		(*float32)(unsafe.Pointer(out)), k, rs, ps, n)
}

//go:noescape
func tile4x8(a, b, out *float64, k, rs, ps, n int)

//go:noescape
func tile4x16f32(a, b, out *float32, k, rs, ps, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
