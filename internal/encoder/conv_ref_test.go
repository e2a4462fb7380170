package encoder

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/tensor"
)

// refForward is the direct convolution the padded kernel replaced, kept
// verbatim as the bit-identity reference: every tap is bounds-checked
// and out-of-map taps are skipped.
func refForward(l *convLayer, x *tensor.Tensor) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	out := tensor.New(l.outC, h, w)
	src := x.Data()
	dst := out.Data()
	hw := h * w
	for o := 0; o < l.outC; o++ {
		oseg := dst[o*hw : (o+1)*hw]
		for i := range oseg {
			oseg[i] = l.bias[o]
		}
		for in := 0; in < l.inC; in++ {
			iseg := src[in*hw : (in+1)*hw]
			k := &l.w[o][in]
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					s := 0.0
					for ky := -1; ky <= 1; ky++ {
						yy := y + ky
						if yy < 0 || yy >= h {
							continue
						}
						for kx := -1; kx <= 1; kx++ {
							xc := xx + kx
							if xc < 0 || xc >= w {
								continue
							}
							s += k[ky+1][kx+1] * iseg[yy*w+xc]
						}
					}
					oseg[y*w+xx] += s
				}
			}
		}
		if l.relu {
			for i, v := range oseg {
				if v < 0 {
					oseg[i] = 0
				}
			}
		}
	}
	if !l.pool {
		return out
	}
	ph, pw := h/2, w/2
	pooled := tensor.New(l.outC, ph, pw)
	pd := pooled.Data()
	phw := ph * pw
	for o := 0; o < l.outC; o++ {
		oseg := dst[o*hw : (o+1)*hw]
		pseg := pd[o*phw : (o+1)*phw]
		for y := 0; y < ph; y++ {
			for xx := 0; xx < pw; xx++ {
				s := oseg[(2*y)*w+2*xx] + oseg[(2*y)*w+2*xx+1] + oseg[(2*y+1)*w+2*xx] + oseg[(2*y+1)*w+2*xx+1]
				pseg[y*pw+xx] = s * 0.25
			}
		}
	}
	return pooled
}

// specials are the inputs that pin the zero-padding argument: signed
// zeros, subnormals at both ends, overflowing magnitudes, ±Inf and NaN.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// testLayer draws a layer with He-scaled normal weights, a sprinkling of
// ±0 and subnormal weights, and biases that include −0.
func testLayer(r *rand.Rand, inC, outC int, pool, relu bool) *convLayer {
	l := &convLayer{inC: inC, outC: outC, pool: pool, relu: relu,
		w: make([][][3][3]float64, outC), bias: make([]float64, outC)}
	std := math.Sqrt(2.0 / float64(inC*9))
	finite := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff)}
	for o := range l.w {
		l.w[o] = make([][3][3]float64, inC)
		for i := range l.w[o] {
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					v := r.NormFloat64() * std
					if r.Intn(8) == 0 {
						v = finite[r.Intn(len(finite))]
					}
					l.w[o][i][ky][kx] = v
				}
			}
		}
		l.bias[o] = r.NormFloat64() * 0.01
		if r.Intn(4) == 0 {
			l.bias[o] = math.Copysign(0, -1)
		}
	}
	return l
}

// assertBitsEqual compares float64 bits exactly, except that any NaN
// matches any NaN: the payload of NaN+NaN follows the operand order of
// the add instruction, which Go leaves to the compiler (see the package
// contract).
func assertBitsEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: len %d, want %d", name, len(g), len(w))
	}
	for i := range g {
		if math.IsNaN(g[i]) && math.IsNaN(w[i]) {
			continue
		}
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: [%d] = %v (%#016x), want %v (%#016x)",
				name, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
}

func TestConvMatchesReferenceBitForBit(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {2, 5}, {3, 3}, {7, 4}, {16, 16}}
	channels := [][2]int{{1, 1}, {2, 3}, {3, 8}, {8, 16}}
	inputs := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64() }},
		{"special", func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return specials[r.Intn(len(specials))]
			}
			return r.NormFloat64()
		}},
		{"signed-zeros", func(r *rand.Rand) float64 { return specials[r.Intn(2)] }},
	}
	r := rand.New(rand.NewSource(1))
	for _, hw := range shapes {
		for _, ch := range channels {
			for _, relu := range []bool{false, true} {
				for _, pool := range []bool{false, true} {
					for _, in := range inputs {
						h, w := hw[0], hw[1]
						l := testLayer(r, ch[0], ch[1], pool, relu)
						x := tensor.New(ch[0], h, w)
						for i := range x.Data() {
							x.Data()[i] = in.draw(r)
						}
						name := fmt.Sprintf("%dx%d c%d→%d relu=%v pool=%v %s", h, w, ch[0], ch[1], relu, pool, in.name)
						assertBitsEqual(t, name, l.forward(x), refForward(l, x))
					}
				}
			}
		}
	}
}

// In this layer every product is −0 (negative weights on +0 inputs and
// on the padding) and every bias is −0. The contract's s starts at +0 and
// stays +0, so each output is −0 + +0 = +0; a kernel that seeded s with
// its first product would output −0 instead.
func TestConvNegativeZeroProducts(t *testing.T) {
	for _, hw := range [][2]int{{1, 1}, {2, 5}, {16, 16}} {
		l := testLayer(rand.New(rand.NewSource(2)), 2, 3, false, false)
		for o := range l.w {
			l.bias[o] = math.Copysign(0, -1)
			for i := range l.w[o] {
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						l.w[o][i][ky][kx] = -0.5 - math.Abs(l.w[o][i][ky][kx])
					}
				}
			}
		}
		x := tensor.New(2, hw[0], hw[1])
		got := l.forward(x)
		name := fmt.Sprintf("%dx%d", hw[0], hw[1])
		assertBitsEqual(t, name, got, refForward(l, x))
		for i, v := range got.Data() {
			if math.Signbit(v) {
				t.Fatalf("%s: [%d] = −0, want +0", name, i)
			}
		}
	}
}

// FuzzConv3x3 drives the padded conv kernel against refForward on
// fuzzer-chosen shapes (h, w ≤ 20), channel counts and input values.
// Inputs are raw float64 bit patterns, so every NaN payload, infinity,
// subnormal and signed zero is reachable; weights are drawn from the
// same bytes but kept finite, as the padding argument requires.
func FuzzConv3x3(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(15), uint8(15), uint8(2), uint8(7), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(4), uint8(1), uint8(2), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, h8, w8, inC8, outC8, mode uint8, data []byte) {
		h, w := int(h8)%20+1, int(w8)%20+1
		inC, outC := int(inC8)%8+1, int(outC8)%8+1
		l := &convLayer{inC: inC, outC: outC, relu: mode&1 != 0, pool: mode&2 != 0,
			w: make([][][3][3]float64, outC), bias: make([]float64, outC)}
		next := func(i int) uint64 {
			if len(data) == 0 {
				return 0
			}
			var b [8]byte
			for j := range b {
				b[j] = data[(8*i+j)%len(data)]
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		n := 0
		weight := func() float64 {
			v := math.Float64frombits(next(n))
			n++
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return 0
			}
			return v
		}
		for o := range l.w {
			l.w[o] = make([][3][3]float64, inC)
			for i := range l.w[o] {
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						l.w[o][i][ky][kx] = weight()
					}
				}
			}
			l.bias[o] = math.Float64frombits(next(n))
			n++
		}
		x := tensor.New(inC, h, w)
		for i := range x.Data() {
			x.Data()[i] = math.Float64frombits(next(n))
			n++
		}
		assertBitsEqual(t, fmt.Sprintf("%dx%d c%d→%d mode=%d", h, w, inC, outC, mode), l.forward(x), refForward(l, x))
	})
}
