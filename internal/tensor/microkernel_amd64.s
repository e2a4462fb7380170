// AVX2 register tiles for MatMul and MatMulATB (see microkernel.go and
// DESIGN.md §5). Each tile computes a 4-row output block over the full
// k range with its accumulators in ymm registers:
//
//	out[r, c] = Σ_p a[r·rs + p·ps] · b[p·n + c]   r < 4, c < W, p < k
//
// Per p and per row the a element is broadcast, multiplied into a
// temporary (VMULPx), masked with (a != 0) and added to the accumulator
// (VADDPx): one IEEE rounding per operation per lane, exactly like the
// Go strips' `if v != 0 { c += v * b }`. No FMA: a fused multiply-add
// rounds once and would change bits. The caller proves every address
// is in bounds and that k ≥ 1; nothing here checks.

#include "textflag.h"

// TILEROW accumulates one row of the tile for the current p. The mask
// is VCMPPD/VCMPPS predicate 4 (NEQ_UQ): true for a NaN a element,
// false for ±0, matching Go's `v != 0`.
#define TILEROW_PD(addr, acc0, acc1) \
	VBROADCASTSD addr, Y10; \
	VCMPPD       $4, Y14, Y10, Y11; \
	VMULPD       Y8, Y10, Y12; \
	VMULPD       Y9, Y10, Y13; \
	VANDPD       Y11, Y12, Y12; \
	VANDPD       Y11, Y13, Y13; \
	VADDPD       Y12, acc0, acc0; \
	VADDPD       Y13, acc1, acc1

#define TILEROW_PS(addr, acc0, acc1) \
	VBROADCASTSS addr, Y10; \
	VCMPPS       $4, Y14, Y10, Y11; \
	VMULPS       Y8, Y10, Y12; \
	VMULPS       Y9, Y10, Y13; \
	VANDPS       Y11, Y12, Y12; \
	VANDPS       Y11, Y13, Y13; \
	VADDPS       Y12, acc0, acc0; \
	VADDPS       Y13, acc1, acc1

// Register plan shared by both tiles: SI walks a at row 0 (rows 1..3
// at +R8, +2·R8, +R11), DI walks b, DX is out, CX counts p down from
// k; R8/R9/R10 are the byte strides rs, ps and n. Y0–Y7 hold the 4×2
// accumulators, Y8/Y9 the b vectors, Y10 the broadcast a, Y11 the
// mask, Y12/Y13 the products and Y14 zero.

// func tile4x8(a, b, out *float64, k, rs, ps, n int)
TEXT ·tile4x8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ rs+32(FP), R8
	MOVQ ps+40(FP), R9
	MOVQ n+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y14, Y14, Y14

loop64:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	TILEROW_PD((SI), Y0, Y1)
	TILEROW_PD((SI)(R8*1), Y2, Y3)
	TILEROW_PD((SI)(R8*2), Y4, Y5)
	TILEROW_PD((SI)(R11*1), Y6, Y7)
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop64

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R10, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R10, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R10, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET

// func tile4x16f32(a, b, out *float32, k, rs, ps, n int)
TEXT ·tile4x16f32(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ rs+32(FP), R8
	MOVQ ps+40(FP), R9
	MOVQ n+48(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (R8)(R8*2), R11

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y14, Y14, Y14

loop32:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	TILEROW_PS((SI), Y0, Y1)
	TILEROW_PS((SI)(R8*1), Y2, Y3)
	TILEROW_PS((SI)(R8*2), Y4, Y5)
	TILEROW_PS((SI)(R11*1), Y6, Y7)
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop32

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R10, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R10, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R10, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
