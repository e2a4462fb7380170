// Package encoder implements the frozen, pre-trained feature encoder Φ
// that PARDON uses for style extraction and style transfer.
//
// The paper uses the VGG encoder of a pre-trained AdaIN model. The
// reproduction substitutes a fixed random convolutional stack
// (see DESIGN.md §2): weights are drawn once from a seeded stream, shared
// identically by all clients and the server, and never trained — exactly
// the role the pre-trained VGG plays. What PARDON needs from Φ is that its
// channel-wise output statistics expose domain style, which holds for any
// fixed conv stack when domains differ by channel statistics and texture.
//
// # Summation-order contract
//
// Encoder outputs feed content addresses, so the conv kernel must
// reproduce the direct convolution bit for bit, not within a tolerance.
// Each output pixel of a layer is computed as
//
//	out = bias
//	for each input channel in ascending order:
//		s := 0.0
//		for ky, kx in row-major (ky, kx) order over the 3×3 taps:
//			s += k[ky][kx] * in[y+ky-1][x+kx-1]
//		out += s
//
// where taps falling outside the map are either skipped or read as zero.
// The two are equivalent: for a finite weight the padded product k·0 is
// ±0, s starts at +0 and under round-to-nearest can never become −0, so
// adding ±0 leaves s unchanged in every bit (±Inf included). Any faster
// kernel must keep this per-pixel order; it may only reorder the walk
// over pixels and channel pairs. NaN payloads are outside the contract: a
// NaN stays a NaN, but which payload NaN+NaN keeps follows the operand
// order of the add instruction, which Go leaves to the compiler.
package encoder

import (
	"fmt"
	"math"
	"sync"

	"github.com/pardon-feddg/pardon/internal/rng"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// Activation selects the encoder nonlinearity.
type Activation int

const (
	// Linear (identity) keeps the encoder a fixed filter bank. This is
	// the default for the DG experiments: it preserves the content⊗style
	// factorization exactly — class content stays in spatial structure,
	// domain style in channel statistics — which is the property AdaIN
	// style transfer relies on (deep VGG features approximate it; a
	// linear filter bank satisfies it by construction; see DESIGN.md).
	Linear Activation = iota + 1
	// ReLU applies max(0,·) after every layer.
	ReLU
)

// Config describes the encoder architecture.
type Config struct {
	// InChannels, H, W describe the expected input shape.
	InChannels int
	H, W       int
	// Channels lists the output channel count of each conv layer. Every
	// layer is a 3×3 convolution (stride 1, zero padding 1); layers
	// marked in Pool are followed by 2×2 mean pooling.
	Channels []int
	// Pool[i] pools after layer i. Defaults to pooling after the first
	// layer only if nil.
	Pool []bool
	// Act is the per-layer activation (default Linear).
	Act Activation
	// Seed identifies the "pre-training"; all participants must share it.
	Seed uint64
}

// DefaultConfig returns the encoder used throughout the experiments:
// 3×16×16 input → 8 channels (pool) → 16 channels, i.e. a 16×8×8 feature
// map with a 32-dimensional style vector, linear activation.
func DefaultConfig() Config {
	return Config{InChannels: 3, H: 16, W: 16, Channels: []int{8, 16}, Pool: []bool{true, false}, Act: Linear, Seed: 7}
}

// Default returns the process-wide encoder built from DefaultConfig. It is
// built on first use and then shared: an Encoder is read-only after
// construction, so every scenario build reuses the same weights and
// calibration instead of recomputing them.
func Default() *Encoder { return defaultEncoder() }

var defaultEncoder = sync.OnceValue(func() *Encoder {
	e, err := New(DefaultConfig())
	if err != nil {
		panic(err) // DefaultConfig is valid by construction
	}
	return e
})

type convLayer struct {
	inC, outC int
	// weights indexed [out][in][ky][kx], 3×3 kernels.
	w    [][][3][3]float64
	bias []float64
	pool bool
	relu bool
}

// Encoder is the frozen feature extractor Φ. It is safe for concurrent use
// after construction (all state is read-only).
type Encoder struct {
	cfg    Config
	layers []convLayer
	outC   int
	outH   int
	outW   int
	// Output calibration: Encode standardizes each output channel with
	// these fixed constants (estimated once on a probe batch at
	// construction), so downstream models see O(1) features. Being fixed
	// affine maps, they preserve relative channel statistics — domain
	// style information survives intact.
	outShift []float64
	outScale []float64
}

// New builds the encoder with deterministic weights derived from cfg.Seed.
func New(cfg Config) (*Encoder, error) {
	if cfg.InChannels <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		return nil, fmt.Errorf("encoder: invalid input shape (%d,%d,%d)", cfg.InChannels, cfg.H, cfg.W)
	}
	if len(cfg.Channels) == 0 {
		return nil, fmt.Errorf("encoder: no layers configured")
	}
	for li, c := range cfg.Channels {
		if c <= 0 {
			return nil, fmt.Errorf("encoder: layer %d has %d output channels", li, c)
		}
	}
	if cfg.Pool == nil {
		cfg.Pool = make([]bool, len(cfg.Channels))
		cfg.Pool[0] = true
	}
	if len(cfg.Pool) != len(cfg.Channels) {
		return nil, fmt.Errorf("encoder: Pool has %d entries for %d layers", len(cfg.Pool), len(cfg.Channels))
	}
	switch cfg.Act {
	case 0:
		cfg.Act = Linear
	case Linear, ReLU:
	default:
		return nil, fmt.Errorf("encoder: unknown activation %d", cfg.Act)
	}
	src := rng.New(cfg.Seed)
	e := &Encoder{cfg: cfg}
	inC, h, w := cfg.InChannels, cfg.H, cfg.W
	for li, outC := range cfg.Channels {
		r := src.StreamI("encoder-layer", li)
		layer := convLayer{inC: inC, outC: outC, pool: cfg.Pool[li], relu: cfg.Act == ReLU, bias: make([]float64, outC)}
		layer.w = make([][][3][3]float64, outC)
		// He-style scaling keeps activations in a stable range through the
		// frozen stack.
		std := math.Sqrt(2.0 / float64(inC*9))
		for o := 0; o < outC; o++ {
			layer.w[o] = make([][3][3]float64, inC)
			for i := 0; i < inC; i++ {
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						layer.w[o][i][ky][kx] = r.NormFloat64() * std
					}
				}
			}
			layer.bias[o] = r.NormFloat64() * 0.01
		}
		e.layers = append(e.layers, layer)
		inC = outC
		if layer.pool {
			if h%2 != 0 || w%2 != 0 {
				return nil, fmt.Errorf("encoder: layer %d pools an odd map %dx%d", li, h, w)
			}
			h, w = h/2, w/2
		}
	}
	e.outC, e.outH, e.outW = inC, h, w
	e.calibrate(src)
	return e, nil
}

// calibrate estimates per-channel output statistics on a probe batch of
// standard-normal images and stores the standardizing affine constants.
func (e *Encoder) calibrate(src *rng.Source) {
	const probes = 64
	r := src.Stream("calibration")
	hw := e.outH * e.outW
	sum := make([]float64, e.outC)
	sumSq := make([]float64, e.outC)
	for p := 0; p < probes; p++ {
		x := tensor.Randn(r, 1, e.cfg.InChannels, e.cfg.H, e.cfg.W)
		f := e.raw(x)
		data := f.Data()
		for ch := 0; ch < e.outC; ch++ {
			for _, v := range data[ch*hw : (ch+1)*hw] {
				sum[ch] += v
				sumSq[ch] += v * v
			}
		}
	}
	n := float64(probes * hw)
	e.outShift = make([]float64, e.outC)
	e.outScale = make([]float64, e.outC)
	for ch := 0; ch < e.outC; ch++ {
		m := sum[ch] / n
		va := sumSq[ch]/n - m*m
		if va < 1e-12 {
			va = 1e-12
		}
		e.outShift[ch] = m
		e.outScale[ch] = 1.0 / math.Sqrt(va)
	}
}

// raw runs the conv stack without output calibration.
func (e *Encoder) raw(x *tensor.Tensor) *tensor.Tensor {
	cur := x
	for i := range e.layers {
		cur = e.layers[i].forward(cur)
	}
	return cur
}

// OutShape returns the (C, H, W) of encoded feature maps.
func (e *Encoder) OutShape() (c, h, w int) { return e.outC, e.outH, e.outW }

// StyleDim returns the dimension (2·C) of style vectors extracted from
// this encoder's features.
func (e *Encoder) StyleDim() int { return 2 * e.outC }

// Encode maps a (InChannels, H, W) image to its (C', H', W') feature map.
func (e *Encoder) Encode(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 || x.Dim(0) != e.cfg.InChannels || x.Dim(1) != e.cfg.H || x.Dim(2) != e.cfg.W {
		return nil, fmt.Errorf("encoder: input shape %v, want (%d,%d,%d)", x.Shape(), e.cfg.InChannels, e.cfg.H, e.cfg.W)
	}
	out := e.raw(x)
	hw := e.outH * e.outW
	data := out.Data()
	for ch := 0; ch < e.outC; ch++ {
		shift, scale := e.outShift[ch], e.outScale[ch]
		seg := data[ch*hw : (ch+1)*hw]
		for i, v := range seg {
			seg[i] = (v - shift) * scale
		}
	}
	return out, nil
}

// EncodeAll encodes a batch of images, returning one feature map per input.
func (e *Encoder) EncodeAll(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		f, err := e.Encode(x)
		if err != nil {
			return nil, fmt.Errorf("encoder: sample %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// PooledFeature returns the channel-wise mean of the encoded feature map —
// the compact per-image descriptor used for FID computation in the privacy
// analysis (the stand-in for InceptionV3 pool features).
func (e *Encoder) PooledFeature(x *tensor.Tensor) ([]float64, error) {
	f, err := e.Encode(x)
	if err != nil {
		return nil, err
	}
	c, h, w := e.outC, e.outH, e.outW
	hw := h * w
	out := make([]float64, c)
	data := f.Data()
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for _, v := range data[ch*hw : (ch+1)*hw] {
			s += v
		}
		out[ch] = s / float64(hw)
	}
	return out, nil
}

// forward runs one conv layer (plus ReLU and 2×2 mean pooling when
// configured). A pooled layer convolves each output channel into one
// reused full-resolution plane and pools it straight into the output.
func (l *convLayer) forward(x *tensor.Tensor) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	hw := h * w
	pad := padPlanes(x.Data(), l.inC, h, w)
	plane := (h + 2) * (w + 2)
	oh, ow := h, w
	var full []float64
	if l.pool {
		oh, ow = h/2, w/2
		full = make([]float64, hw)
	}
	out := tensor.New(l.outC, oh, ow)
	dst := out.Data()
	ohw := oh * ow
	for o := 0; o < l.outC; o++ {
		oseg := full
		if !l.pool {
			oseg = dst[o*hw : (o+1)*hw]
		}
		for i := range oseg {
			oseg[i] = l.bias[o]
		}
		for in := 0; in < l.inC; in++ {
			conv3x3Add(oseg, pad[in*plane:(in+1)*plane], h, w, &l.w[o][in])
		}
		if l.relu {
			for i, v := range oseg {
				if v < 0 {
					oseg[i] = 0
				}
			}
		}
		if l.pool {
			pseg := dst[o*ohw : (o+1)*ohw]
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					s := oseg[(2*y)*w+2*xx] + oseg[(2*y)*w+2*xx+1] + oseg[(2*y+1)*w+2*xx] + oseg[(2*y+1)*w+2*xx+1]
					pseg[y*ow+xx] = s * 0.25
				}
			}
		}
	}
	return out
}

// padPlanes copies each of the c h×w planes of src into the centre of a
// zero (h+2)×(w+2) frame, so the conv never branches on the border.
func padPlanes(src []float64, c, h, w int) []float64 {
	pw, hw := w+2, h*w
	phw := (h + 2) * pw
	pad := make([]float64, c*phw)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			copy(pad[ch*phw+(y+1)*pw+1:], src[ch*hw+y*w:ch*hw+(y+1)*w])
		}
	}
	return pad
}

// conv3x3Add adds the 3×3 correlation of one zero-padded input plane p
// ((h+2)×(w+2), from padPlanes) with kernel k to the h×w output plane
// dst, in the per-pixel tap order the package contract fixes.
func conv3x3Add(dst, p []float64, h, w int, k *[3][3]float64) {
	k00, k01, k02 := k[0][0], k[0][1], k[0][2]
	k10, k11, k12 := k[1][0], k[1][1], k[1][2]
	k20, k21, k22 := k[2][0], k[2][1], k[2][2]
	pw := w + 2
	for y := 0; y < h; y++ {
		// Padded column x holds input column x-1, so output pixel x-2
		// reads columns x-2, x-1, x of the three padded rows.
		r0 := p[y*pw : (y+1)*pw]
		r1 := p[(y+1)*pw:][:len(r0)]
		r2 := p[(y+2)*pw:][:len(r0)]
		row := dst[y*w:][:len(r0)-2]
		for x := 2; x < len(r0); x++ {
			s := 0.0
			s += k00 * r0[x-2]
			s += k01 * r0[x-1]
			s += k02 * r0[x]
			s += k10 * r1[x-2]
			s += k11 * r1[x-1]
			s += k12 * r1[x]
			s += k20 * r2[x-2]
			s += k21 * r2[x-1]
			s += k22 * r2[x]
			row[x-2] += s
		}
	}
}
