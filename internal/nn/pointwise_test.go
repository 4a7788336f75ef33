package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// refBatchNormStep is the cached-xhat formulation BatchNorm had before it
// recomputed the normalized input: Forward stores xhat = (x − mean)·invStd
// and Backward reads it back. It runs one Forward and Backward serially
// with γ and β taken from b, starting from and updating b's running
// statistics, and returns the output, the input gradient, dγ, dβ and the
// running mean and variance.
func refBatchNormStep(b *BatchNorm, x, gradOut *tensor.Tensor, train bool) [][]float64 {
	batch, C := x.Dim(0), b.C
	spatial := x.Len() / (batch * C)
	n := float64(batch * spatial)
	xd, god, gd, bd := x.Data(), gradOut.Data(), b.gamma.Data(), b.beta.Data()
	// each calls f on every element of every channel, item by item.
	each := func(f func(c, i int)) {
		for bi := 0; bi < batch; bi++ {
			for c := 0; c < C; c++ {
				for i := (bi*C + c) * spatial; i < (bi*C+c+1)*spatial; i++ {
					f(c, i)
				}
			}
		}
	}
	// sum adds f over channel c's elements in the same order.
	sum := func(c int, f func(i int) float64) (s float64) {
		each(func(cc, i int) {
			if cc == c {
				s += f(i)
			}
		})
		return s
	}
	rm, rv := b.runMean.Data(), b.runVar.Data()
	mean, variance := append([]float64(nil), rm...), append([]float64(nil), rv...)
	for c := 0; c < C && train; c++ {
		mean[c] = sum(c, func(i int) float64 { return xd[i] }) / n
		variance[c] = sum(c, func(i int) float64 { d := xd[i] - mean[c]; return d * d }) / n
		rm[c] = (1-b.Momentum)*rm[c] + b.Momentum*mean[c]
		rv[c] = (1-b.Momentum)*rv[c] + b.Momentum*variance[c]
	}
	invStd := make([]float64, C)
	for c := range invStd {
		v := variance[c]
		if v < 0 {
			v = 0
		}
		invStd[c] = 1 / math.Sqrt(v+b.Eps)
	}
	xhat, out, gid := make([]float64, len(xd)), make([]float64, len(xd)), make([]float64, len(xd))
	each(func(c, i int) {
		xhat[i] = (xd[i] - mean[c]) * invStd[c]
		out[i] = gd[c]*xhat[i] + bd[c]
	})
	ggd, gbd := make([]float64, C), make([]float64, C)
	for c := 0; c < C; c++ {
		gbd[c] += sum(c, func(i int) float64 { return god[i] })
		ggd[c] += sum(c, func(i int) float64 { return god[i] * xhat[i] })
	}
	each(func(c, i int) { gid[i] = gd[c] * invStd[c] * (god[i] - gbd[c]/n - xhat[i]*(ggd[c]/n)) })
	return [][]float64{out, gid, ggd, gbd, append([]float64(nil), rm...), append([]float64(nil), rv...)}
}

// layerStep returns, for a fresh layer from mk, the output, input gradient
// and parameter gradients of the last of steps training passes on x and
// gradOut g, then the output of an inference Forward after them and that of
// another fresh layer's steps-th inference Forward (cold and warm
// workspaces).
func layerStep(mk func() Layer, x, g *tensor.Tensor, steps int) [][]float64 {
	layer, infer := mk(), mk()
	var res [][]float64
	for s := 0; s < steps; s++ {
		res = [][]float64{layer.Forward(x, true).Clone().Data(), layer.Backward(g).Clone().Data()}
		for _, pg := range layer.Grads() {
			res = append(res, pg.Clone().Data())
		}
	}
	for s := 1; s < steps; s++ {
		infer.Forward(x, false)
	}
	return append(res, layer.Forward(x, false).Clone().Data(), infer.Forward(x, false).Data())
}

// TestBatchNormBitIdentical holds BatchNorm, on every kernel tier (it never
// calls the compute pool), to the cached-xhat formulation it replaced:
// training and inference Forward, Backward, both parameter gradients and
// the running statistics, bit for bit, after one and after two steps.
// Shapes cover a dense input (spatial 1), VGG11's late planes (4), odd
// tails (7, 9) and a 16×16 plane, channel counts that are not a multiple of
// the reductions' interleave, and batch 1. x, γ, β and gradOut hold
// kerneltest.HardwareNaN: the two formulations' channel sums are Go whose
// compiled operand order, and so which of two NaN payloads a sum keeps, is
// the compiler's choice and differs under -race.
// TestPointwiseLayersBitIdentical plants payloads, tier against tier.
func TestBatchNormBitIdentical(t *testing.T) {
	shapes := [][]int{
		{5, 9}, {1, 6}, {3, 5, 4}, {4, 7, 7}, {2, 6, 3, 3}, {3, 5, 16, 16}, {1, 3, 2, 2}, {6, 8, 2, 2},
	}
	kt.WithPools(1).Run(t, func(emit func(kerneltest.Case)) {
		for si, shape := range shapes {
			g := kerneltest.NewGen(int64(300+si), kerneltest.HardwareNaN)
			x, gradOut := tensor.Randn(g.Rand, 0, 1, shape...), tensor.Randn(g.Rand, 0, 1, shape...)
			g.Plant(x.Data(), 8)
			g.Plant(gradOut.Data(), 8)
			proto := plantedBatchNorm(g, shape[1], 8)
			for c := range proto.runVar.Data() {
				proto.runVar.Data()[c] = 0.5 + g.Float64()
			}
			mk := func() *BatchNorm { return proto.cloneLayer().(*BatchNorm) }
			for _, train := range []bool{true, false} {
				for steps := 1; steps <= 2; steps++ {
					emit(kerneltest.Case{Name: fmt.Sprintf("shape=%v train=%v steps=%d", shape, train, steps),
						Ref: func([][]float64) (want [][]float64) {
							layer := mk()
							for s := 0; s < steps; s++ {
								want = refBatchNormStep(layer, x, gradOut, train)
							}
							return want
						},
						Run: func([][]float64) ([][]float64, int) {
							layer := mk()
							var out, gradIn *tensor.Tensor
							for s := 0; s < steps; s++ {
								out = layer.Forward(x, train).Clone()
								gradIn = layer.Backward(gradOut)
							}
							return [][]float64{out.Data(), gradIn.Data(), layer.gGamma.Data(), layer.gBeta.Data(),
								layer.runMean.Data(), layer.runVar.Data()}, -1
						}})
				}
			}
		}
	})
}

// TestPointwiseLayersBitIdentical holds ReLU, DenseAct's fused ReLU,
// MaxPool2D and BatchNorm on every kernel tier and pool size to the scalar
// tier's serial run, bit for bit (pooling's argmax through its input
// gradient), over inputs and gradients holding kerneltest.Payloads and, for
// the pools, ties; BatchNorm's γ and β hold payloads too. Only the kernels
// differ between tiers, so every payload must land where the scalar loops
// put it. BatchNorm's NaNs go by channel (plantByChannel), since one NaN in
// a channel's gradOut makes its dβ NaN, whose payload then hides every
// later operand's. The pooling shapes cover output widths the vector kernel
// takes (1, 2, 4, 8, 16) and leaves (3, 5), and planes the 2×2 windows do
// not tile (odd sides).
func TestPointwiseLayersBitIdentical(t *testing.T) {
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
	kt.Run(t, func(emit func(kerneltest.Case)) {
		for ci, tc := range cases {
			g := kerneltest.NewGen(int64(400+ci), kerneltest.Payloads)
			x := tensor.Randn(g.Rand, 0, 1, tc.shape...)
			xd := x.Data()
			for i := range xd {
				if strings.HasPrefix(tc.name, "maxpool") && g.Intn(3) == 0 {
					xd[i] = float64(g.Intn(3)) // ties
				}
			}
			gradOut := tensor.Randn(g.Rand, 0, 1, tc.mk().Forward(x, true).Shape()...)
			if strings.HasPrefix(tc.name, "batchnorm") {
				plantByChannel(g, xd, tc.shape, 1)
				plantByChannel(g, gradOut.Data(), tc.shape, 0)
			} else {
				g.Plant(xd, 8)
				g.Plant(gradOut.Data(), 8)
			}
			emit(kerneltest.Case{Name: tc.name, Run: func([][]float64) ([][]float64, int) {
				return layerStep(tc.mk, x, gradOut, 2), -1
			}})
		}
	})
}

// payloadBatchNorm returns a BatchNorm over c channels whose γ and β are
// drawn around 1 and 0, about one in three replaced by a payload.
func payloadBatchNorm(c int) *BatchNorm {
	return plantedBatchNorm(kerneltest.NewGen(int64(500+c), kerneltest.Payloads), c, 3)
}

// plantedBatchNorm returns a BatchNorm over c channels whose γ and β are
// drawn around 1 and 0 from g, about one in every replaced by a special.
func plantedBatchNorm(g *kerneltest.Gen, c, every int) *BatchNorm {
	b := NewBatchNorm(c)
	for _, p := range b.Params() {
		for i := range p.Data() {
			p.Data()[i] += 0.5 * g.NormFloat64()
		}
		g.Plant(p.Data(), every)
	}
	return b
}

// plantByChannel plants specials in about one in four elements of v, of
// the given [items, C, ...] shape, skipping the channels whose index is skip mod 3:
// with x skipping 1 and gradOut 0, channels 0 mod 3 hold NaN payloads in x
// alone (so two x payloads meet in the input gradient's products), 1 mod 3
// in gradOut alone and 2 mod 3 in both.
func plantByChannel(g *kerneltest.Gen, v []float64, shape []int, skip int) {
	C := shape[1]
	spatial := len(v) / (shape[0] * C)
	for j := range v {
		if j/spatial%C%3 != skip && g.Intn(4) == 0 {
			v[j] = g.Special()
		}
	}
}
