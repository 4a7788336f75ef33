package nn

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// restoreConvDispatch resets the direct-path budget mutated by a test.
func restoreConvDispatch(t testing.TB) {
	t.Helper()
	prev := conv2dDirectBudget
	t.Cleanup(func() { setConv2DDirectBudget(prev) })
}

// conv2dCase is one geometry of the direct-vs-im2col property tests.
type conv2dCase struct {
	name                      string
	inC, outC, k, stride, pad int
	batch, h, w               int
}

// conv2dCases covers the edge geometries the dispatch must keep bit-identical:
// borders dominated by padding, kernels at least as large as the padded
// input, 1×1 kernels, output-channel counts straddling the 8-wide SIMD tile,
// and spatial sizes that leave ragged 4-position panels.
var conv2dCases = []conv2dCase{
	{"vgg-like", 3, 5, 3, 1, 1, 3, 9, 7},
	{"stride2", 2, 4, 3, 2, 1, 2, 8, 8},
	{"kernel1x1", 1, 3, 1, 1, 0, 2, 5, 5},
	{"kernel-exceeds-input", 2, 5, 5, 1, 2, 2, 2, 2},
	{"kernel-covers-padded", 1, 2, 3, 1, 1, 1, 1, 1},
	{"bench-shape", 3, 16, 3, 1, 1, 4, 16, 16},
	{"outc-ragged", 2, 9, 3, 1, 1, 3, 6, 5},
	{"even-kernel-stride2", 4, 7, 2, 2, 0, 2, 7, 9},
	{"no-pad", 3, 6, 3, 1, 0, 2, 7, 7},
}

func (tc conv2dCase) layer() *Conv2D {
	return NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, rand.New(rand.NewSource(41)))
}

func (tc conv2dCase) input() *tensor.Tensor {
	return tensor.Randn(rand.New(rand.NewSource(42)), 0, 1, tc.batch, tc.inC, tc.h, tc.w)
}

// convInfer runs `steps` inference forwards on a fresh, identically seeded
// layer and returns a clone of the last output.
func convInfer(tc conv2dCase, steps int) *tensor.Tensor {
	layer, x := tc.layer(), tc.input()
	var o *tensor.Tensor
	for s := 0; s < steps; s++ {
		o = layer.Forward(x, false)
	}
	return o.Clone()
}

// convTrainStep runs `steps` training Forward+Backward passes on a fresh,
// identically seeded layer and returns clones of the output, input gradient,
// and parameter gradients. gradOut carries exact zeros so the zero-skip
// conventions are exercised on every path.
func convTrainStep(tc conv2dCase, steps int) (out, gin *tensor.Tensor, grads []*tensor.Tensor) {
	layer, x := tc.layer(), tc.input()
	var o, gi, g *tensor.Tensor
	for s := 0; s < steps; s++ {
		o = layer.Forward(x, true)
		if g == nil {
			g = tensor.Randn(rand.New(rand.NewSource(43)), 0, 1, o.Shape()...)
			gd := g.Data()
			zrng := rand.New(rand.NewSource(44))
			for i := range gd {
				if zrng.Intn(4) == 0 {
					gd[i] = 0
				}
			}
		}
		gi = layer.Backward(g)
	}
	return o.Clone(), gi.Clone(), cloneAll(layer.Grads())
}

// TestConv2DDirectBitIdenticalIm2col is the direct-forward correctness gate:
// for every edge geometry, the inference output must be bit-identical
// between the im2col+GEMM path and the direct path, on cold and warm
// workspaces.
func TestConv2DDirectBitIdenticalIm2col(t *testing.T) {
	restoreConvDispatch(t)
	for _, tc := range conv2dCases {
		setConv2DDirectBudget(-1) // force im2col
		want := convInfer(tc, 1)
		setConv2DDirectBudget(1 << 30) // force direct
		for _, steps := range []int{1, 2} {
			got := convInfer(tc, steps)
			if !equalData(got.Data(), want.Data()) {
				t.Errorf("%s steps=%d: direct forward diverges from im2col", tc.name, steps)
			}
		}
	}
}

// TestConv2DFusedBackwardBitIdentical is the fused input-gradient gate: a
// full training step must produce bit-identical output, input gradient, and
// parameter gradients whether the backward materializes the gradient-column
// matrix or scatters fused panels.
func TestConv2DFusedBackwardBitIdentical(t *testing.T) {
	restoreConvDispatch(t)
	for _, tc := range conv2dCases {
		setConv2DDirectBudget(-1) // force materialized gradCol + col2im
		wantOut, wantGin, wantGrads := convTrainStep(tc, 1)
		setConv2DDirectBudget(1 << 30) // force fused gradIn
		for _, steps := range []int{1, 2} {
			gotOut, gotGin, gotGrads := convTrainStep(tc, steps)
			if !equalData(gotOut.Data(), wantOut.Data()) {
				t.Errorf("%s steps=%d: forward diverges under fused backward", tc.name, steps)
			}
			if !equalData(gotGin.Data(), wantGin.Data()) {
				t.Errorf("%s steps=%d: fused input grad diverges from gradCol path", tc.name, steps)
			}
			for i := range wantGrads {
				if !equalData(gotGrads[i].Data(), wantGrads[i].Data()) {
					t.Errorf("%s steps=%d: param grad %d diverges under fused backward", tc.name, steps, i)
				}
			}
		}
	}
}

// TestConv2DDirectPoolParallelBitIdentical pins the new paths' pool
// determinism: the direct inference forward and the fused gradIn stage both
// split over the batch and must be bit-identical for any worker count.
func TestConv2DDirectPoolParallelBitIdentical(t *testing.T) {
	restoreConvDispatch(t)
	restorePool(t)
	setConv2DDirectBudget(1 << 30)
	parallel.SetMinWork(32)
	tc := conv2dCase{"parallel", 3, 16, 3, 1, 1, 5, 12, 10}

	parallel.SetWorkers(1)
	wantInfer := convInfer(tc, 1)
	wantOut, wantGin, wantGrads := convTrainStep(tc, 1)
	for _, workers := range []int{2, 4, 7} {
		parallel.SetWorkers(workers)
		if got := convInfer(tc, 2); !equalData(got.Data(), wantInfer.Data()) {
			t.Errorf("workers=%d: direct forward diverges from serial", workers)
		}
		gotOut, gotGin, gotGrads := convTrainStep(tc, 2)
		if !equalData(gotOut.Data(), wantOut.Data()) {
			t.Errorf("workers=%d: training forward diverges from serial", workers)
		}
		if !equalData(gotGin.Data(), wantGin.Data()) {
			t.Errorf("workers=%d: fused input grad diverges from serial", workers)
		}
		for i := range wantGrads {
			if !equalData(gotGrads[i].Data(), wantGrads[i].Data()) {
				t.Errorf("workers=%d: param grad %d diverges from serial", workers, i)
			}
		}
	}
}

// TestConv2DDirectDispatch checks the dispatch rule itself: inference
// forwards of layers whose weight panel fits the budget take the direct
// path, training forwards and over-budget layers fall back to im2col, and a
// negative budget disables direct entirely.
func TestConv2DDirectDispatch(t *testing.T) {
	restoreConvDispatch(t)
	rng := rand.New(rand.NewSource(7))
	small := NewConv2D(3, 8, 3, 1, 1, rng)   // wT = 27*8*8 = 1728 B
	large := NewConv2D(64, 64, 3, 1, 1, rng) // wT = 576*64*8 = 294912 B
	x := tensor.Randn(rng, 0, 1, 1, 3, 6, 6)
	xl := tensor.Randn(rng, 0, 1, 1, 64, 6, 6)

	setConv2DDirectBudget(64 << 10)
	small.Forward(x, false)
	if !small.lastDirect {
		t.Errorf("small layer under budget did not take the direct path")
	}
	small.Forward(x, true)
	if small.lastDirect {
		t.Errorf("training forward took the direct path")
	}
	large.Forward(xl, false)
	if large.lastDirect {
		t.Errorf("large layer over budget took the direct path")
	}
	setConv2DDirectBudget(-1)
	small.Forward(x, false)
	if small.lastDirect {
		t.Errorf("direct path dispatched with a negative budget")
	}
}

// TestConv2DBackwardAfterInferencePanics pins the direct forward's contract:
// it keeps no state for Backward, so Backward without a training Forward
// must panic instead of silently using stale columns.
func TestConv2DBackwardAfterInferencePanics(t *testing.T) {
	restoreConvDispatch(t)
	setConv2DDirectBudget(1 << 30)
	layer := NewConv2D(2, 4, 3, 1, 1, rand.New(rand.NewSource(3)))
	x := tensor.Randn(rand.New(rand.NewSource(4)), 0, 1, 1, 2, 5, 5)
	out := layer.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Errorf("Backward after inference-only Forward did not panic")
		}
	}()
	layer.Backward(out)
}

// TestConv2DDirectAllocFree pins the new paths' zero-allocation steady
// state: after warm-up, neither the direct inference forward nor the
// fused-backward training step may allocate. The contract is the serial
// kernels': the pool's fan-out allocates its task closures on a multi-CPU
// host, so the test pins one worker.
func TestConv2DDirectAllocFree(t *testing.T) {
	restoreConvDispatch(t)
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	setConv2DDirectBudget(1 << 30)
	layer := NewConv2D(3, 16, 3, 1, 1, rand.New(rand.NewSource(9)))
	x := tensor.Randn(rand.New(rand.NewSource(10)), 0, 1, 4, 3, 12, 12)
	layer.Forward(x, false)
	if !layer.lastDirect {
		t.Fatal("expected direct dispatch")
	}
	allocs := testing.AllocsPerRun(10, func() {
		layer.Forward(x, false)
	})
	if allocs != 0 {
		t.Errorf("steady-state direct Forward allocates %v times per step, want 0", allocs)
	}
	out := layer.Forward(x, true)
	g := tensor.Randn(rand.New(rand.NewSource(11)), 0, 1, out.Shape()...)
	layer.Backward(g)
	allocs = testing.AllocsPerRun(10, func() {
		layer.Forward(x, true)
		layer.Backward(g)
	})
	if allocs != 0 {
		t.Errorf("steady-state fused Forward+Backward allocates %v times per step, want 0", allocs)
	}
}
