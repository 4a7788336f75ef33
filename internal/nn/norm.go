package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// BatchNorm normalizes activations per channel (dimension 1) over all other
// axes. It supports dense [B, F], 1-D conv [B, C, L], and 2-D conv
// [B, C, H, W] inputs. Training mode uses batch statistics and updates
// exponential running statistics; evaluation mode uses the running statistics.
//
// Backward recomputes the normalized input (x − mean)·invStd from the input
// Forward was given, with the same two roundings, so the layer keeps no
// activation-sized cache: as with Conv2D, x must not change between Forward
// and Backward. The per-channel sums run several channels' chains side by
// side, each in its own ascending (batch, spatial) order. The normalize and
// input-gradient loops run at vector width through tensor.BatchNormNormalize
// and tensor.BatchNormGradIn; their scalar loops here are the kernels'
// reference and the fallback below AVX-512. Every per-step buffer is
// grow-only, so a steady-state training step on one compute worker performs
// no allocations; on more, each split of parallel.For allocates.
type BatchNorm struct {
	C        int
	Eps      float64
	Momentum float64

	gamma, beta *tensor.Tensor
	gGamma      *tensor.Tensor
	gBeta       *tensor.Tensor

	runMean, runVar *tensor.Tensor

	// Forward's input and per-channel statistics, kept for Backward.
	lastShape []int
	lastX     *tensor.Tensor
	meanBuf   []float64
	varBuf    []float64
	invStd    []float64
	// gradCoef holds Backward's per-channel input-gradient coefficients:
	// γ·invStd, then dβ/n, then dγ/n.
	gradCoef []float64
	ws       tensor.Workspace
}

// BatchNorm workspace slots.
const (
	bnSlotOut = iota
	bnSlotGradIn
)

// bnLanes is how many channels' reductions bnStatsRange runs side by side
// (bnGradSumsRange, with two chains a channel, pairs them). Every channel
// keeps its own serial chain, so the width moves no bit: it only lets the
// chains' adds overlap instead of each waiting on the one before.
const bnLanes = 4

var (
	_ Layer       = (*BatchNorm)(nil)
	_ Initializer = (*BatchNorm)(nil)
)

// NewBatchNorm returns a batch-normalization layer over c channels.
func NewBatchNorm(c int) *BatchNorm {
	b := &BatchNorm{
		C:        c,
		Eps:      1e-5,
		Momentum: 0.1,
		gamma:    tensor.Full(1, c),
		beta:     tensor.New(c),
		gGamma:   tensor.New(c),
		gBeta:    tensor.New(c),
		runMean:  tensor.New(c),
		runVar:   tensor.Full(1, c),
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("batchnorm(%d)", b.C) }

// InitScale implements Initializer. BatchNorm's "random" re-initialization
// used by obfuscation draws gamma around 1 and beta around 0.
func (b *BatchNorm) InitScale() float64 { return 0.1 }

// ResetParams implements Initializer.
func (b *BatchNorm) ResetParams(rng *rand.Rand) {
	gd, bd := b.gamma.Data(), b.beta.Data()
	for i := range gd {
		gd[i] = 1
		bd[i] = 0
	}
	_ = rng // deterministic reset: gamma=1, beta=0
}

// RunningStats returns the running mean and variance tensors (live views;
// serialized alongside parameters by the model's state codec).
func (b *BatchNorm) RunningStats() (mean, variance *tensor.Tensor) {
	return b.runMean, b.runVar
}

// cloneLayer implements layer cloning: parameters and running statistics are
// deep-copied, caches and workspace start fresh.
func (b *BatchNorm) cloneLayer() Layer {
	return &BatchNorm{
		C:        b.C,
		Eps:      b.Eps,
		Momentum: b.Momentum,
		gamma:    b.gamma.Clone(),
		beta:     b.beta.Clone(),
		gGamma:   b.gGamma.Clone(),
		gBeta:    b.gBeta.Clone(),
		runMean:  b.runMean.Clone(),
		runVar:   b.runVar.Clone(),
	}
}

// Forward implements Layer. x must not change before the Backward that
// follows.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() < 2 || x.Dim(1) != b.C {
		panic(fmt.Sprintf("nn: %s got input %v", b.Name(), x.Shape()))
	}
	b.lastShape = recordShape(b.lastShape, x)
	b.lastX = x
	batch := x.Dim(0)
	spatial := x.Len() / (batch * b.C)

	if cap(b.meanBuf) < b.C {
		b.meanBuf = make([]float64, b.C)
		b.varBuf = make([]float64, b.C)
		b.invStd = make([]float64, b.C)
	}
	mean := b.meanBuf[:b.C]
	variance := b.varBuf[:b.C]
	invStd := b.invStd[:b.C]
	xd := x.Data()
	if train {
		// Batch statistics reduce over (batch, spatial) per channel, so the
		// fan-out is across channels, in whole groups of bnLanes: every
		// channel keeps its serial accumulation order and the loop that
		// runs it, so parallel results stay bit-identical.
		groups := (b.C + bnLanes - 1) / bnLanes
		g := parallel.Grain(2 * batch * spatial * bnLanes)
		if parallel.Chunks(groups, g) <= 1 {
			bnStatsRange(xd, mean, variance, 0, b.C, batch, b.C, spatial)
		} else {
			parallel.For(groups, g, func(lo, hi int) {
				bnStatsRange(xd, mean, variance, lo*bnLanes, min(hi*bnLanes, b.C), batch, b.C, spatial)
			})
		}
		rm, rv := b.runMean.Data(), b.runVar.Data()
		for c := 0; c < b.C; c++ {
			rm[c] = (1-b.Momentum)*rm[c] + b.Momentum*mean[c]
			rv[c] = (1-b.Momentum)*rv[c] + b.Momentum*variance[c]
		}
	} else {
		copy(mean, b.runMean.Data())
		copy(variance, b.runVar.Data())
	}

	for c := 0; c < b.C; c++ {
		// Aggregation or perturbation defenses could drive a running
		// variance slightly negative; clamp to keep invStd finite.
		v := variance[c]
		if v < 0 {
			v = 0
		}
		invStd[c] = 1 / math.Sqrt(v+b.Eps)
	}

	out := b.ws.Get(bnSlotOut, b.lastShape...)
	od, gd, bd := out.Data(), b.gamma.Data(), b.beta.Data()
	// Normalization is elementwise given the per-channel coefficients, so
	// it fans out over the batch dimension.
	bg := parallel.Grain(b.C * spatial)
	if parallel.Chunks(batch, bg) <= 1 {
		bnNormalizeRange(od, xd, mean, invStd, gd, bd, 0, batch, b.C, spatial)
		return out
	}
	parallel.For(batch, bg, func(lo, hi int) {
		bnNormalizeRange(od, xd, mean, invStd, gd, bd, lo, hi, b.C, spatial)
	})
	return out
}

// bnStatsRange computes batch mean and variance for channels [c0,c1),
// reducing over (batch, spatial) in ascending order — the same order as the
// serial loop, so chunked execution is bit-identical. Groups of bnLanes
// channels share one pass; the channels past the last whole group take
// bnStatsChannel. Chunks start on a group, so a channel takes the same
// loop, and keeps the same NaN payloads, whatever the pool size.
func bnStatsRange(xd, mean, variance []float64, c0, c1, batch, C, spatial int) {
	n := float64(batch * spatial)
	c := c0
	for ; c+bnLanes <= c1; c += bnLanes {
		var s0, s1, s2, s3 float64
		for bi := 0; bi < batch; bi++ {
			run := xd[(bi*C+c)*spatial:][:bnLanes*spatial]
			x0 := run[:spatial]
			x1, x2, x3 := run[spatial:][:len(x0)], run[2*spatial:][:len(x0)], run[3*spatial:][:len(x0)]
			for i, v := range x0 {
				s0 += v
				s1 += x1[i]
				s2 += x2[i]
				s3 += x3[i]
			}
		}
		m0, m1, m2, m3 := s0/n, s1/n, s2/n, s3/n
		mean[c], mean[c+1], mean[c+2], mean[c+3] = m0, m1, m2, m3
		s0, s1, s2, s3 = 0, 0, 0, 0
		for bi := 0; bi < batch; bi++ {
			run := xd[(bi*C+c)*spatial:][:bnLanes*spatial]
			x0 := run[:spatial]
			x1, x2, x3 := run[spatial:][:len(x0)], run[2*spatial:][:len(x0)], run[3*spatial:][:len(x0)]
			for i, v := range x0 {
				d0, d1, d2, d3 := v-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
		}
		variance[c], variance[c+1], variance[c+2], variance[c+3] = s0/n, s1/n, s2/n, s3/n
	}
	for ; c < c1; c++ {
		bnStatsChannel(xd, mean, variance, c, batch, C, spatial)
	}
}

// bnStatsChannel is bnStatsRange for the one channel c.
func bnStatsChannel(xd, mean, variance []float64, c, batch, C, spatial int) {
	n := float64(batch * spatial)
	s := 0.0
	for bi := 0; bi < batch; bi++ {
		for _, v := range xd[(bi*C+c)*spatial:][:spatial] {
			s += v
		}
	}
	m := s / n
	mean[c] = m
	s = 0
	for bi := 0; bi < batch; bi++ {
		for _, v := range xd[(bi*C+c)*spatial:][:spatial] {
			d := v - m
			s += d * d
		}
	}
	variance[c] = s / n
}

// bnNormalizeRange writes od = γ·((x − mean)·invStd) + β for batch items
// [b0,b1): tensor.BatchNormNormalize covers the items it can, this loop the
// rest.
func bnNormalizeRange(od, xd, mean, invStd, gd, bd []float64, b0, b1, C, spatial int) {
	lo, hi := b0*C*spatial, b1*C*spatial
	for bi := b0 + tensor.BatchNormNormalize(od[lo:hi], xd[lo:hi], mean, invStd, gd, bd, C, spatial); bi < b1; bi++ {
		for c := 0; c < C; c++ {
			x := xd[(bi*C+c)*spatial:][:spatial]
			o := od[(bi*C+c)*spatial:][:len(x)]
			m, is, g, bt := mean[c], invStd[c], gd[c], bd[c]
			for i, v := range x {
				xh := (v - m) * is
				o[i] = g*xh + bt
			}
		}
	}
}

// Backward implements Layer. It assumes the preceding Forward ran with
// train=true (batch statistics), which is always the case during training,
// and that its input has not changed since.
func (b *BatchNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if b.lastX == nil {
		panic("nn: batchnorm Backward before Forward")
	}
	batch := b.lastShape[0]
	spatial := gradOut.Len() / (batch * b.C)
	n := float64(batch * spatial)

	b.gGamma.Zero()
	b.gBeta.Zero()
	ggd, gbd := b.gGamma.Data(), b.gBeta.Data()
	god, xd := gradOut.Data(), b.lastX.Data()
	mean, invStd := b.meanBuf[:b.C], b.invStd[:b.C]
	// The gamma/beta gradients reduce over (batch, spatial) per channel, so
	// the fan-out is across channels, in whole pairs; each channel keeps the
	// serial batch-ascending accumulation order and the loop that runs it,
	// so results are bit-identical.
	pairs := (b.C + 1) / 2
	cg := parallel.Grain(4 * batch * spatial)
	if parallel.Chunks(pairs, cg) <= 1 {
		bnGradSumsRange(god, xd, mean, invStd, ggd, gbd, 0, b.C, batch, b.C, spatial)
	} else {
		parallel.For(pairs, cg, func(lo, hi int) {
			bnGradSumsRange(god, xd, mean, invStd, ggd, gbd, 2*lo, min(2*hi, b.C), batch, b.C, spatial)
		})
	}

	if cap(b.gradCoef) < 3*b.C {
		b.gradCoef = make([]float64, 3*b.C)
	}
	k, dbeta, dgamma := b.gradCoef[:b.C], b.gradCoef[b.C:2*b.C], b.gradCoef[2*b.C:3*b.C]
	gmd := b.gamma.Data()
	for c := range k {
		k[c] = gmd[c] * invStd[c]
		dbeta[c], dgamma[c] = gbd[c]/n, ggd[c]/n
	}

	gradIn := b.ws.Get(bnSlotGradIn, b.lastShape...)
	gid := gradIn.Data()
	bg := parallel.Grain(b.C * spatial)
	if parallel.Chunks(batch, bg) <= 1 {
		bnGradInRange(gid, god, xd, mean, invStd, k, dbeta, dgamma, 0, batch, b.C, spatial)
		return gradIn
	}
	parallel.For(batch, bg, func(lo, hi int) {
		bnGradInRange(gid, god, xd, mean, invStd, k, dbeta, dgamma, lo, hi, b.C, spatial)
	})
	return gradIn
}

// bnGradSumsRange accumulates the beta and gamma gradients for channels
// [c0,c1), recomputing each normalized input as Forward did. Per channel
// the (batch, spatial) order matches the serial loop. Pairs of channels
// share one pass, four chains side by side; the channel left over takes
// bnGradSumsChannel. Chunks start on a pair, as bnStatsRange's on a group.
// Which of two NaN payloads a sum keeps is the compiler's choice: the
// compiled g·xh keeps xh, which lives in a register, as its first source,
// so where both are NaN dγ takes xh's payload (a cached xhat, read from
// memory, gave g's), and -race builds choose differently again.
func bnGradSumsRange(god, xd, mean, invStd, ggd, gbd []float64, c0, c1, batch, C, spatial int) {
	c := c0
	for ; c+2 <= c1; c += 2 {
		var sb0, sb1, sg0, sg1 float64
		m0, m1, is0, is1 := mean[c], mean[c+1], invStd[c], invStd[c+1]
		for bi := 0; bi < batch; bi++ {
			base := (bi*C + c) * spatial
			run := xd[base:][:2*spatial]
			grun := god[base:][:len(run)]
			x0 := run[:spatial]
			x1, g0, g1 := run[spatial:][:len(x0)], grun[:len(x0)], grun[spatial:][:len(x0)]
			for i, v := range x0 {
				xh0, xh1 := (v-m0)*is0, (x1[i]-m1)*is1
				g := g0[i]
				sb0 += g
				sg0 += g * xh0
				g = g1[i]
				sb1 += g
				sg1 += g * xh1
			}
		}
		gbd[c] += sb0
		gbd[c+1] += sb1
		ggd[c] += sg0
		ggd[c+1] += sg1
	}
	if c < c1 {
		bnGradSumsChannel(god, xd, mean, invStd, ggd, gbd, c, batch, C, spatial)
	}
}

// bnGradSumsChannel is bnGradSumsRange for the one channel c.
func bnGradSumsChannel(god, xd, mean, invStd, ggd, gbd []float64, c, batch, C, spatial int) {
	sb, sg := 0.0, 0.0
	m, is := mean[c], invStd[c]
	for bi := 0; bi < batch; bi++ {
		base := (bi*C + c) * spatial
		x := xd[base:][:spatial]
		gs := god[base:][:len(x)]
		for i, v := range x {
			xh := (v - m) * is
			g := gs[i]
			sb += g
			sg += g * xh
		}
	}
	gbd[c] += sb
	ggd[c] += sg
}

// bnGradInRange writes the input gradient
// k·(gradOut − dβ − ((x − mean)·invStd)·dγ) for batch items [b0,b1), with
// the per-channel coefficients k = γ·invStd, dβ/n and dγ/n Backward
// computed: tensor.BatchNormGradIn covers the items it can, this loop the
// rest.
func bnGradInRange(gid, god, xd, mean, invStd, k, dbeta, dgamma []float64, b0, b1, C, spatial int) {
	lo, hi := b0*C*spatial, b1*C*spatial
	for bi := b0 + tensor.BatchNormGradIn(gid[lo:hi], god[lo:hi], xd[lo:hi], mean, invStd, k, dbeta, dgamma, C, spatial); bi < b1; bi++ {
		for c := 0; c < C; c++ {
			x := xd[(bi*C+c)*spatial:][:spatial]
			g := god[(bi*C+c)*spatial:][:len(x)]
			gi := gid[(bi*C+c)*spatial:][:len(x)]
			m, is, kc, db, dg := mean[c], invStd[c], k[c], dbeta[c], dgamma[c]
			for i, v := range x {
				xh := (v - m) * is
				gi[i] = kc * (g[i] - db - xh*dg)
			}
		}
	}
}

// Params implements Layer.
func (b *BatchNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{b.gamma, b.beta} }

// Grads implements Layer.
func (b *BatchNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{b.gGamma, b.gBeta} }
