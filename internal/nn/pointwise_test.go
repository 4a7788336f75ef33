package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// pointwiseSpecials are planted in the pointwise layers' inputs: quiet and
// signalling NaNs of both signs with distinct payloads, ±Inf and −0.
var pointwiseSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff4000000000123), math.Float64frombits(0xfff0000000000777),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
}

// plantPayloads replaces about one in eight of v with a pointwise special.
func plantPayloads(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = pointwiseSpecials[rng.Intn(len(pointwiseSpecials))]
		}
	}
}

// bnStepResult is one BatchNorm training step's outputs and gradients.
type bnStepResult struct{ out, gradIn, gGamma, gBeta, runMean, runVar []float64 }

// refBatchNormStep is the cached-xhat formulation BatchNorm had before it
// recomputed the normalized input: Forward stores xhat = (x − mean)·invStd
// and Backward reads it back. It runs one Forward and Backward serially
// with γ and β taken from b, starting from b's running statistics.
func refBatchNormStep(b *BatchNorm, x, gradOut *tensor.Tensor, train bool) bnStepResult {
	batch, C := x.Dim(0), b.C
	spatial := x.Len() / (batch * C)
	n := float64(batch * spatial)
	xd, god, gd, bd := x.Data(), gradOut.Data(), b.gamma.Data(), b.beta.Data()
	mean, variance := make([]float64, C), make([]float64, C)
	rm, rv := append([]float64(nil), b.runMean.Data()...), append([]float64(nil), b.runVar.Data()...)
	if train {
		for c := 0; c < C; c++ {
			s := 0.0
			for bi := 0; bi < batch; bi++ {
				base := (bi*C + c) * spatial
				for i := 0; i < spatial; i++ {
					s += xd[base+i]
				}
			}
			mean[c] = s / n
		}
		for c := 0; c < C; c++ {
			s := 0.0
			for bi := 0; bi < batch; bi++ {
				base := (bi*C + c) * spatial
				for i := 0; i < spatial; i++ {
					d := xd[base+i] - mean[c]
					s += d * d
				}
			}
			variance[c] = s / n
		}
		for c := 0; c < C; c++ {
			rm[c] = (1-b.Momentum)*rm[c] + b.Momentum*mean[c]
			rv[c] = (1-b.Momentum)*rv[c] + b.Momentum*variance[c]
		}
	} else {
		copy(mean, rm)
		copy(variance, rv)
	}
	invStd := make([]float64, C)
	for c := range invStd {
		v := variance[c]
		if v < 0 {
			v = 0
		}
		invStd[c] = 1 / math.Sqrt(v+b.Eps)
	}
	xhat, out := make([]float64, len(xd)), make([]float64, len(xd))
	for bi := 0; bi < batch; bi++ {
		for c := 0; c < C; c++ {
			base := (bi*C + c) * spatial
			m, is, g, bt := mean[c], invStd[c], gd[c], bd[c]
			for i := 0; i < spatial; i++ {
				xh := (xd[base+i] - m) * is
				xhat[base+i] = xh
				out[base+i] = g*xh + bt
			}
		}
	}
	ggd, gbd := make([]float64, C), make([]float64, C)
	for c := 0; c < C; c++ {
		sb, sg := 0.0, 0.0
		for bi := 0; bi < batch; bi++ {
			base := (bi*C + c) * spatial
			for i := 0; i < spatial; i++ {
				g := god[base+i]
				sb += g
				sg += g * xhat[base+i]
			}
		}
		gbd[c] += sb
		ggd[c] += sg
	}
	gid := make([]float64, len(xd))
	for bi := 0; bi < batch; bi++ {
		for c := 0; c < C; c++ {
			base := (bi*C + c) * spatial
			k := gd[c] * invStd[c]
			dbeta, dgamma := gbd[c]/n, ggd[c]/n
			for i := 0; i < spatial; i++ {
				gid[base+i] = k * (god[base+i] - dbeta - xhat[base+i]*dgamma)
			}
		}
	}
	return bnStepResult{out, gid, ggd, gbd, rm, rv}
}

// TestBatchNormBitIdentical holds BatchNorm, on every kernel tier, to the
// cached-xhat formulation it replaced: training and inference Forward,
// Backward, both parameter gradients and the running statistics, bit for
// bit, after one and after two steps. Shapes cover a dense input
// (spatial 1), VGG11's late planes (4), odd tails (7, 9) and a 16×16 plane,
// channel counts that are not a multiple of the reductions' interleave,
// and batch 1. x, γ, β and gradOut hold ±0, ±Inf and the hardware's NaN
// (plantSpecials): the two formulations' channel sums are Go whose
// compiled operand order, and so which of two NaN payloads a sum keeps,
// is the compiler's choice and differs under -race.
// TestPointwiseLayersBitIdentical plants payloads, tier against tier.
func TestBatchNormBitIdentical(t *testing.T) {
	shapes := [][]int{
		{5, 9}, {1, 6}, {3, 5, 4}, {4, 7, 7}, {2, 6, 3, 3}, {3, 5, 16, 16}, {1, 3, 2, 2}, {6, 8, 2, 2},
	}
	tensor.ForEachKernelISA(func(isa string) {
		for si, shape := range shapes {
			for _, train := range []bool{true, false} {
				rng := rand.New(rand.NewSource(int64(300 + si)))
				x := tensor.Randn(rng, 0, 1, shape...)
				g := tensor.Randn(rng, 0, 1, shape...)
				plantSpecials(x.Data(), int64(310+si))
				plantSpecials(g.Data(), int64(320+si))
				layer := NewBatchNorm(shape[1])
				for pi, p := range layer.Params() {
					d := p.Data()
					for i := range d {
						d[i] += 0.5 * rng.NormFloat64()
					}
					plantSpecials(d, int64(330+2*si+pi))
				}
				rv := layer.runVar.Data()
				for c := range rv {
					rv[c] = 0.5 + rng.Float64()
				}
				for step := 1; step <= 2; step++ {
					want := refBatchNormStep(layer, x, g, train)
					out := layer.Forward(x, train).Clone()
					gradIn := layer.Backward(g)
					where := fmt.Sprintf("%s/shape=%v train=%v step=%d", isa, shape, train, step)
					for _, c := range []struct {
						what      string
						got, want []float64
					}{
						{"output", out.Data(), want.out},
						{"input gradient", gradIn.Data(), want.gradIn},
						{"dγ", layer.gGamma.Data(), want.gGamma},
						{"dβ", layer.gBeta.Data(), want.gBeta},
						{"running mean", layer.runMean.Data(), want.runMean},
						{"running variance", layer.runVar.Data(), want.runVar},
					} {
						if i := firstDiff(c.got, c.want); i >= 0 {
							t.Fatalf("%s: %s[%d] = %#x, cached-xhat form %#x", where, c.what, i,
								math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
						}
					}
				}
			}
		}
	})
}

// firstDiff reports the first index where a and b hold different bit
// patterns, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestPointwiseLayersBitIdentical holds ReLU, DenseAct's fused ReLU,
// MaxPool2D and BatchNorm on every kernel tier (DenseAct, which splits its
// bias+activation pass, with the pool sized 1 and 3) to the scalar tier,
// bit for bit (pooling's argmax through its input gradient), over inputs
// and gradients holding NaN payloads, ±Inf, −0 and, for the pools, ties;
// BatchNorm's γ and β hold payloads too. Only the
// kernels differ between tiers, so every payload must land where the scalar
// loops put it. BatchNorm's NaNs go by channel (plantByChannel), since one
// NaN in a channel's gradOut makes its dβ NaN, whose payload then hides
// every later operand's. The pooling shapes cover output widths the vector
// kernel takes (1, 2, 4, 8, 16) and leaves (3, 5), and planes the 2×2
// windows do not tile (odd sides). Outputs, input gradients and parameter
// gradients are compared.
func TestPointwiseLayersBitIdentical(t *testing.T) {
	restorePool(t)
	parallel.SetMinWork(32)
	cases := []struct {
		name  string
		mk    func() Layer
		shape []int
	}{
		{"relu", func() Layer { return NewReLU() }, []int{5, 3, 7, 9}},
		{"relu-flat", func() Layer { return NewReLU() }, []int{3, 1029}},
		{"dense+relu", func() Layer { return NewDenseAct(13, 21, ActReLU, rand.New(rand.NewSource(7))) }, []int{6, 13}},
		{"maxpool ow=1", func() Layer { return NewMaxPool2D(2) }, []int{5, 7, 2, 2}},
		{"maxpool ow=2", func() Layer { return NewMaxPool2D(2) }, []int{3, 5, 4, 4}},
		{"maxpool ow=3", func() Layer { return NewMaxPool2D(2) }, []int{2, 3, 6, 6}},
		{"maxpool ow=4", func() Layer { return NewMaxPool2D(2) }, []int{3, 3, 8, 8}},
		{"maxpool ow=8", func() Layer { return NewMaxPool2D(2) }, []int{2, 4, 16, 16}},
		{"maxpool ow=16", func() Layer { return NewMaxPool2D(2) }, []int{1, 3, 32, 32}},
		{"maxpool 5x9", func() Layer { return NewMaxPool2D(2) }, []int{2, 3, 5, 9}},
		{"maxpool k=3", func() Layer { return NewMaxPool2D(3) }, []int{2, 2, 9, 9}},
		{"batchnorm dense", func() Layer { return payloadBatchNorm(9) }, []int{5, 9}},
		{"batchnorm 7x7", func() Layer { return payloadBatchNorm(5) }, []int{3, 5, 7, 7}},
		{"batchnorm 2x2", func() Layer { return payloadBatchNorm(8) }, []int{6, 8, 2, 2}},
	}
	// run returns a layer's output, then its input gradient, then each
	// parameter gradient, after two Forwards and a Backward.
	run := func(mk func() Layer, x, g *tensor.Tensor) [][]float64 {
		layer := mk()
		layer.Forward(x, true)
		res := [][]float64{layer.Forward(x, true).Clone().Data(), layer.Backward(g).Data()}
		for _, pg := range layer.Grads() {
			res = append(res, pg.Data())
		}
		return res
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(400 + ci)))
		x := tensor.Randn(rng, 0, 1, tc.shape...)
		xd := x.Data()
		for i := range xd {
			if strings.HasPrefix(tc.name, "maxpool") && rng.Intn(3) == 0 {
				xd[i] = float64(rng.Intn(3)) // ties
			}
		}
		g := tensor.Randn(rng, 0, 1, tc.mk().Forward(x, true).Shape()...)
		if strings.HasPrefix(tc.name, "batchnorm") {
			plantByChannel(rng, xd, tc.shape, 1)
			plantByChannel(rng, g.Data(), tc.shape, 0)
		} else {
			plantPayloads(rng, xd)
			plantPayloads(rng, g.Data())
		}

		var want [][]float64
		pools := []int{1}
		if strings.HasPrefix(tc.name, "dense") {
			pools = append(pools, 3)
		}
		tensor.ForEachKernelISA(func(isa string) {
			for _, workers := range pools {
				parallel.SetWorkers(workers)
				got := run(tc.mk, x, g)
				if isa == "scalar" && workers == 1 {
					want = got
					continue
				}
				for k := range got {
					if i := firstDiff(got[k], want[k]); i >= 0 {
						t.Fatalf("%s %s/workers=%d: result %d (output, input gradient, parameter gradients)[%d] = %#x, scalar %#x",
							tc.name, isa, workers, k, i, math.Float64bits(got[k][i]), math.Float64bits(want[k][i]))
					}
				}
			}
		})
	}
}

// payloadBatchNorm returns a BatchNorm over c channels whose γ and β are
// drawn around 1 and 0, about one in three replaced by a NaN payload, ±Inf
// or −0.
func payloadBatchNorm(c int) *BatchNorm {
	rng := rand.New(rand.NewSource(int64(500 + c)))
	b := NewBatchNorm(c)
	for _, p := range b.Params() {
		d := p.Data()
		for i := range d {
			if d[i] += 0.5 * rng.NormFloat64(); rng.Intn(3) == 0 {
				d[i] = pointwiseSpecials[rng.Intn(len(pointwiseSpecials))]
			}
		}
	}
	return b
}

// plantByChannel plants specials in about one in four elements of v, of
// the given [items, C, ...] shape, skipping the channels whose index is skip mod 3:
// with x skipping 1 and gradOut 0, channels 0 mod 3 hold NaN payloads in x
// alone (so two x payloads meet in the input gradient's products), 1 mod 3
// in gradOut alone and 2 mod 3 in both.
func plantByChannel(rng *rand.Rand, v []float64, shape []int, skip int) {
	C := shape[1]
	spatial := len(v) / (shape[0] * C)
	for j := range v {
		if j/spatial%C%3 != skip && rng.Intn(4) == 0 {
			v[j] = pointwiseSpecials[rng.Intn(len(pointwiseSpecials))]
		}
	}
}
