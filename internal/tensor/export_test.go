package tensor

// Test-only hooks: run the blocked range kernels over an explicit row
// partition, so tests can prove the outputs are invariant to how rows are
// split across workers (the determinism guarantee of DESIGN.md §5)
// without depending on GOMAXPROCS.

// MatMulWithSplits computes a@b applying matMulRange over each
// [bounds[i], bounds[i+1]) row range. bounds must start at 0 and end at m.
func MatMulWithSplits(a, b *Tensor, bounds []int) (*Tensor, error) {
	m, k, n, err := matMulDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	for i := 0; i+1 < len(bounds); i++ {
		matMulRange(a.data, b.data, out.data, k, n, bounds[i], bounds[i+1])
	}
	return out, nil
}

// MatMulATBWithSplits is MatMulWithSplits for the aᵀ@b kernel.
func MatMulATBWithSplits(a, b *Tensor, bounds []int) (*Tensor, error) {
	k, m, n, err := matMulATBDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	for i := 0; i+1 < len(bounds); i++ {
		matMulATBRange(a.data, b.data, out.data, k, m, n, bounds[i], bounds[i+1])
	}
	return out, nil
}

// MatMulABTWithSplits is MatMulWithSplits for the a@bᵀ kernel.
func MatMulABTWithSplits(a, b *Tensor, bounds []int) (*Tensor, error) {
	m, k, n, err := matMulABTDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	for i := 0; i+1 < len(bounds); i++ {
		matMulABTRange(a.data, b.data, out.data, k, n, bounds[i], bounds[i+1])
	}
	return out, nil
}

// Float32 analogs of the split hooks, over the generic panel kernels
// directly. The panels assign every element, so out is not pre-zeroed —
// the splits must also prove dirty buffers are fully overwritten.

// MatMulF32WithSplits computes a@b over float32 slices applying the
// blocked panel to each row range.
func MatMulF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	for i := 0; i+1 < len(bounds); i++ {
		mmPanel(a, b, out, k, n, bounds[i], bounds[i+1])
	}
}

// MatMulATBF32WithSplits is MatMulF32WithSplits for the aᵀ@b kernel.
func MatMulATBF32WithSplits(out, a, b []float32, k, m, n int, bounds []int) {
	for i := 0; i+1 < len(bounds); i++ {
		atbPanel(a, b, out, k, m, n, bounds[i], bounds[i+1])
	}
}

// MatMulABTF32WithSplits is MatMulF32WithSplits for the a@bᵀ kernel.
func MatMulABTF32WithSplits(out, a, b []float32, k, n int, bounds []int) {
	for i := 0; i+1 < len(bounds); i++ {
		abtPanel(a, b, out, k, n, bounds[i], bounds[i+1])
	}
}

// SIMD reports whether the panels run the AVX2 tiles on this CPU.
var SIMD = simd

// MatMulPanelAndStrips computes a@b twice over all m rows: through the
// production panel (SIMD tiles where the CPU has them) and through the
// Go strips alone, the tiles' reference.
func MatMulPanelAndStrips[T float32 | float64](a, b []T, m, k, n int) (panel, strips []T) {
	panel, strips = make([]T, m*n), make([]T, m*n)
	mmPanel(a, b, panel, k, n, 0, m)
	mmStrips(a, b, strips, k, n, 0, m)
	return panel, strips
}

// MatMulATBPanelAndStrips is MatMulPanelAndStrips for aᵀ@b.
func MatMulATBPanelAndStrips[T float32 | float64](a, b []T, k, m, n int) (panel, strips []T) {
	panel, strips = make([]T, m*n), make([]T, m*n)
	atbPanel(a, b, panel, k, m, n, 0, m)
	atbStrips(a, b, strips, k, m, n, 0, m)
	return panel, strips
}
