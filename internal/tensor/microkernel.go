// Micro-kernel layer: register-blocked inner loops shared by the
// float64 tensor kernels (kernels.go) and the float32 slice kernels
// (f32.go). The panel entry points (mmPanel/atbPanel/abtPanel) compute
// a contiguous range of output rows — the unit the worker pool hands
// out. There are two register levels:
//
//   - AVX2 tiles (microkernel_amd64.s), for MatMul and MatMulATB on
//     CPUs with AVX2. A tile computes a 4-row × W-column block over the
//     full k range, W = 8 float64 or 16 float32 columns (two ymm
//     registers per row), with its 8 accumulators in ymm registers.
//     One kernel per dtype serves both products: it takes the a
//     operand as a row stride and a p stride (MatMul rs=k, ps=1;
//     MatMulATB rs=1, ps=m). mmTiles/atbTiles run it over every whole
//     4-row group and every whole W-column block of the panel.
//   - Go 2-row × 4-column strips whose accumulators live in named
//     locals, so each a/b element loaded feeds up to 4 multiply-adds
//     and each b element serves both rows. They are the whole kernel
//     off amd64 or without AVX2, the ragged edges beside the tiles
//     (n % W columns, < 4 leftover rows), all of MatMulABT, and the
//     reference the tiles are tested against.
//
// Go compiles the strips to scalar MULSD/ADDSD, and wider Go strips
// spill (DESIGN.md §5); the ymm tiles hold 4 a rows × W lanes without
// spilling, which is what makes the 4-row tile pay off. The tiles
// follow four rules, each needed for bit-identity with the strips:
//
//   - Multiply, then add; never FMA. Per p each lane does VMULPx into a
//     temporary and VADDPx into its accumulator, one IEEE rounding
//     each, exactly like the strips' `c += v * b`. A fused
//     multiply-add rounds once and would change bits.
//   - Ascending p per element, accumulators starting at +0 (VXORPx),
//     every output element assigned exactly once.
//   - A branch-free zero gate. mask = VCMPPx predicate 4 (NEQ_UQ) of
//     the broadcast a element against 0, ANDed into the product before
//     the add. NaN compares not-equal, so a NaN a element is included,
//     as Go's `v != 0` includes it; ±0 is excluded. The masked term is
//     +0, and adding +0 equals skipping the term bit for bit: the
//     accumulator is never −0 (see below), x + (+0) = x for every
//     other x including ±Inf and NaN, and the product that was masked
//     — 0·Inf = NaN, say — never reaches the sum.
//   - Selection by the platform only: CPUID/XGETBV once at package
//     init (microkernel_amd64.go). There is no flag, environment
//     variable or build tag.
//
// The invariants shared by both levels (DESIGN.md §5):
//
//   - Per-element accumulation order is ascending p, always. Tiles and
//     strips reorder the (i,j) walk, never the reduction, so the
//     blocked kernels are bit-identical to the serial references in
//     float64 at any parallelism — including signed zeros: under
//     round-to-nearest a sum can only be −0 when both operands are
//     −0, and the gate discards ±0 a-elements, so a register
//     accumulator that starts at +0 is never −0 and assigning it
//     equals accumulating it into a zeroed element, bit for bit.
//     Assignment in turn lets every panel make one write-only pass
//     over its output rows — no zeroing pass, no read-modify-write.
//   - Zero skipping is per a-element, exactly like the references:
//     MatMul/MatMulATB gate each term on `a != 0` so a zero
//     contributes no term (which matters when b holds NaN/Inf), while
//     ABT is a dense dot product with no gate, also like its reference.
//     ABT stays on the strips: vectorizing its dot product over p
//     would reorder the reduction.
//
// The same generic bodies instantiate for float32; the f32 results are
// likewise bit-identical to a scalar float32 reference (same order,
// same rounding), and differ from float64 only by the documented
// rounding tolerance. A NaN result's payload is not part of the
// contract: amd64 keeps the first operand's payload and Go does not fix
// operand order.
package tensor

import "unsafe"

// number is the dtype seam: every micro-kernel is written once against
// this constraint and stenciled for float32 and float64.
type number interface{ ~float32 | ~float64 }

// tileWidth is the SIMD tile's column count W for T: two 256-bit
// registers per row, 8 float64 or 16 float32 lanes.
func tileWidth[T number]() int {
	var z T
	return 64 / int(unsafe.Sizeof(z))
}

// --- MatMul: out[i,j] = Σ_p a[i,p]·b[p,j], a is m×k, b is k×n ---

// mmPanel computes out rows [lo,hi) of a@b. Every element is assigned
// exactly once from a register accumulator, so out need not be zeroed
// and the kernel makes a single write-only pass over its panel.
// Assignment is bitwise identical to zero-then-accumulate: a gated
// ascending-p sum that starts at +0 can never round to −0, so
// out[j] = c equals out[j] = 0 + c in every bit. Whole 4-row groups go
// to the SIMD tiles when the CPU has them; the rest to the Go strips.
func mmPanel[T number](a, b, out []T, k, n, lo, hi int) {
	mmStrips(a, b, out, k, n, mmTiles(a, b, out, k, n, lo, hi), hi)
}

// mmTiles computes the whole 4-row groups of rows [lo,hi) — full
// tile-width columns with the SIMD tile, the n%W tail with the 2×4
// strips — and returns the first row it left for mmStrips. It computes
// nothing (returns lo) without SIMD, for k == 0, or for n < W.
//
// The tile does no bounds checks, so before it runs mmTiles indexes
// the first and the last element each call reads from a and b and
// writes to out; every address in between is inside that range.
func mmTiles[T number](a, b, out []T, k, n, lo, hi int) int {
	w := tileWidth[T]()
	nt := n - n%w
	if !simd || k <= 0 || nt <= 0 {
		return lo
	}
	_ = b[(k-1)*n+nt-1] // last b element of the last tile column
	i := lo
	for ; i+4 <= hi; i += 4 {
		_ = a[(i+4)*k-1]      // a[i+3, k-1]
		_ = out[(i+3)*n+nt-1] // out[i+3, nt-1]
		for j := 0; j < nt; j += w {
			tile4(&a[i*k], &b[j], &out[i*n+j], k, k, 1, n)
		}
		if nt < n {
			mmPair(a, b, out, k, n, i, nt)
			mmPair(a, b, out, k, n, i+2, nt)
		}
	}
	return i
}

// mmStrips computes out rows [lo,hi) of a@b with the Go 2×4 strips
// and row tails only: the whole kernel off SIMD hosts, the ragged rows
// on SIMD hosts, and the reference the tiles are tested against.
func mmStrips[T number](a, b, out []T, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		mmPair(a, b, out, k, n, i, 0)
	}
	if i < hi {
		mmRowTail(a[i*k:(i+1)*k], b, out[i*n:(i+1)*n], n, 0)
	}
}

// mmPair computes columns [jlo,n) of rows i and i+1: 2×4 strips, then
// a row tail for each row.
func mmPair[T number](a, b, out []T, k, n, i, jlo int) {
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	o0 := out[(i+0)*n : (i+1)*n]
	o1 := out[(i+1)*n : (i+2)*n]
	j := jlo
	for ; j+4 <= n; j += 4 {
		mm2x4(a0, a1, b, o0, o1, n, j)
	}
	if j < n {
		mmRowTail(a0, b, o0, n, j)
		mmRowTail(a1, b, o1, n, j)
	}
}

// mm2x4 accumulates the 2×4 output strip at rows a0,a1, columns j..j+3.
func mm2x4[T number](a0, a1, b, o0, o1 []T, n, j int) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	for p := 0; p < len(a0); p++ {
		bp := b[p*n+j : p*n+j+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		if v := a0[p]; v != 0 {
			c00 += v * b0
			c01 += v * b1
			c02 += v * b2
			c03 += v * b3
		}
		if v := a1[p]; v != 0 {
			c10 += v * b0
			c11 += v * b1
			c12 += v * b2
			c13 += v * b3
		}
	}
	o0[j+0] = c00
	o0[j+1] = c01
	o0[j+2] = c02
	o0[j+3] = c03
	o1[j+0] = c10
	o1[j+1] = c11
	o1[j+2] = c12
	o1[j+3] = c13
}

// mmRowTail computes output columns [jlo,n) of one row: 1×4 register
// strips while four columns remain, then one accumulator per trailing
// column. Every element still reduces in ascending-p order gated on
// the a element — the reference order — and is assigned once.
func mmRowTail[T number](ai, b, oi []T, n, jlo int) {
	j := jlo
	for ; j+4 <= n; j += 4 {
		var c0, c1, c2, c3 T
		for p := 0; p < len(ai); p++ {
			if v := ai[p]; v != 0 {
				bp := b[p*n+j : p*n+j+4]
				c0 += v * bp[0]
				c1 += v * bp[1]
				c2 += v * bp[2]
				c3 += v * bp[3]
			}
		}
		oi[j+0] = c0
		oi[j+1] = c1
		oi[j+2] = c2
		oi[j+3] = c3
	}
	for ; j < n; j++ {
		var c T
		for p := 0; p < len(ai); p++ {
			if av := ai[p]; av != 0 {
				c += av * b[p*n+j]
			}
		}
		oi[j] = c
	}
}

// --- MatMulATB: out[i,j] = Σ_p a[p,i]·b[p,j], a is k×m, b is k×n ---

// atbPanel computes out rows [lo,hi) of aᵀ@b. Like mmPanel it assigns
// every element exactly once from a register accumulator, so out need
// not be zeroed. Output row i reads column i of a: the tile walks it
// with a p stride of m, and the 2-row strip loads the adjacent pair
// a[p,i], a[p,i+1] with one contiguous slice per p.
func atbPanel[T number](a, b, out []T, k, m, n, lo, hi int) {
	atbStrips(a, b, out, k, m, n, atbTiles(a, b, out, k, m, n, lo, hi), hi)
}

// atbTiles is mmTiles for aᵀ@b: the same tile with row stride 1 and
// p stride m, under the same bounds proof.
func atbTiles[T number](a, b, out []T, k, m, n, lo, hi int) int {
	w := tileWidth[T]()
	nt := n - n%w
	if !simd || k <= 0 || nt <= 0 {
		return lo
	}
	_ = b[(k-1)*n+nt-1] // last b element of the last tile column
	i := lo
	for ; i+4 <= hi; i += 4 {
		_ = a[(k-1)*m+i+3]    // a[k-1, i+3]
		_ = out[(i+3)*n+nt-1] // out[i+3, nt-1]
		for j := 0; j < nt; j += w {
			tile4(&a[i], &b[j], &out[i*n+j], k, 1, m, n)
		}
		if nt < n {
			atbPair(a, b, out, k, m, n, i, nt)
			atbPair(a, b, out, k, m, n, i+2, nt)
		}
	}
	return i
}

// atbStrips is mmStrips for aᵀ@b.
func atbStrips[T number](a, b, out []T, k, m, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		atbPair(a, b, out, k, m, n, i, 0)
	}
	if i < hi {
		atbRowTail(a, b, out[i*n:(i+1)*n], k, m, n, i)
	}
}

// atbPair computes columns [jlo,n) of rows i and i+1: 2×4 strips, then
// one accumulator pair per trailing column.
func atbPair[T number](a, b, out []T, k, m, n, i, jlo int) {
	o0 := out[(i+0)*n : (i+1)*n]
	o1 := out[(i+1)*n : (i+2)*n]
	j := jlo
	for ; j+4 <= n; j += 4 {
		atb2x4(a, b, o0, o1, k, m, n, i, j)
	}
	if j < n {
		atbColTail(a, b, o0, o1, k, m, n, i, j)
	}
}

// atbRowTail computes the full output row i: 1×4 register strips, then
// one accumulator per trailing column.
func atbRowTail[T number](a, b, oi []T, k, m, n, i int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		var c0, c1, c2, c3 T
		for p := 0; p < k; p++ {
			if v := a[p*m+i]; v != 0 {
				bp := b[p*n+j : p*n+j+4]
				c0 += v * bp[0]
				c1 += v * bp[1]
				c2 += v * bp[2]
				c3 += v * bp[3]
			}
		}
		oi[j+0] = c0
		oi[j+1] = c1
		oi[j+2] = c2
		oi[j+3] = c3
	}
	for ; j < n; j++ {
		var c T
		for p := 0; p < k; p++ {
			if v := a[p*m+i]; v != 0 {
				c += v * b[p*n+j]
			}
		}
		oi[j] = c
	}
}

// atb2x4 accumulates the 2×4 output strip at rows i,i+1, columns j..j+3.
func atb2x4[T number](a, b, o0, o1 []T, k, m, n, i, j int) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	for p := 0; p < k; p++ {
		ap := a[p*m+i : p*m+i+2]
		bp := b[p*n+j : p*n+j+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		if v := ap[0]; v != 0 {
			c00 += v * b0
			c01 += v * b1
			c02 += v * b2
			c03 += v * b3
		}
		if v := ap[1]; v != 0 {
			c10 += v * b0
			c11 += v * b1
			c12 += v * b2
			c13 += v * b3
		}
	}
	o0[j+0] = c00
	o0[j+1] = c01
	o0[j+2] = c02
	o0[j+3] = c03
	o1[j+0] = c10
	o1[j+1] = c11
	o1[j+2] = c12
	o1[j+3] = c13
}

// atbColTail handles the ≤3 trailing output columns [jlo,n) for the
// row pair i,i+1, one accumulator pair per column (ascending p, gated
// per a element).
func atbColTail[T number](a, b, o0, o1 []T, k, m, n, i, jlo int) {
	for j := jlo; j < n; j++ {
		var c0, c1 T
		for p := 0; p < k; p++ {
			ap := a[p*m+i : p*m+i+2]
			bv := b[p*n+j]
			if v := ap[0]; v != 0 {
				c0 += v * bv
			}
			if v := ap[1]; v != 0 {
				c1 += v * bv
			}
		}
		o0[j] = c0
		o1[j] = c1
	}
}

// --- MatMulABT: out[i,j] = Σ_p a[i,p]·b[j,p], a is m×k, b is n×k ---

// abtPanel computes out rows [lo,hi) of a@bᵀ. Dense dot products with
// direct assignment: out need not be zeroed.
func abtPanel[T number](a, b, out []T, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		o0 := out[(i+0)*n : (i+1)*n]
		o1 := out[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			abt2x4(a0, a1,
				b[(j+0)*k:(j+1)*k], b[(j+1)*k:(j+2)*k],
				b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k],
				o0, o1, j)
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var c0, c1 T
			for p := 0; p < len(bj); p++ {
				c0 += a0[p] * bj[p]
				c1 += a1[p] * bj[p]
			}
			o0[j] = c0
			o1[j] = c1
		}
	}
	if i < hi {
		ai := a[i*k : (i+1)*k]
		oi := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var c T
			for p := 0; p < len(bj); p++ {
				c += ai[p] * bj[p]
			}
			oi[j] = c
		}
	}
}

// abt2x4 computes the dense 2×4 dot-product strip at columns j..j+3.
func abt2x4[T number](a0, a1, b0, b1, b2, b3, o0, o1 []T, j int) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	for p := 0; p < len(a0); p++ {
		av0, av1 := a0[p], a1[p]
		bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
		c00 += av0 * bv0
		c01 += av0 * bv1
		c02 += av0 * bv2
		c03 += av0 * bv3
		c10 += av1 * bv0
		c11 += av1 * bv1
		c12 += av1 * bv2
		c13 += av1 * bv3
	}
	o0[j+0] = c00
	o0[j+1] = c01
	o0[j+2] = c02
	o0[j+3] = c03
	o1[j+0] = c10
	o1[j+1] = c11
	o1[j+2] = c12
	o1[j+3] = c13
}

// --- Fused element-wise kernels ---

// addScaled computes dst[i] = a[i] + s·b[i], 4-way unrolled. dst may
// alias a and/or b (the in-place axpy of the aggregation path).
func addScaled[T number](dst, a []T, s T, b []T) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4]
		av := a[i : i+4]
		bv := b[i : i+4]
		d[0] = av[0] + s*bv[0]
		d[1] = av[1] + s*bv[1]
		d[2] = av[2] + s*bv[2]
		d[3] = av[3] + s*bv[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + s*b[i]
	}
}
