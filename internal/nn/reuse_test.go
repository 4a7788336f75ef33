package nn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// reuseCase describes one layer under workspace-reuse testing: a same-seed
// factory (so two instances are bit-identical) and an input builder
// parameterized by batch size.
type reuseCase struct {
	name string
	mk   func(rng *rand.Rand) Layer
	dims []int // per-example input dims (batch prepended)
}

var reuseCases = []reuseCase{
	{"dense", func(r *rand.Rand) Layer { return NewDense(7, 5, r) }, []int{7}},
	{"dense+relu", func(r *rand.Rand) Layer { return NewDenseAct(7, 5, ActReLU, r) }, []int{7}},
	{"dense+tanh", func(r *rand.Rand) Layer { return NewDenseAct(7, 5, ActTanh, r) }, []int{7}},
	{"conv2d", func(r *rand.Rand) Layer { return NewConv2D(2, 3, 3, 1, 1, r) }, []int{2, 6, 6}},
	{"conv2d-strided", func(r *rand.Rand) Layer { return NewConv2D(3, 4, 3, 2, 1, r) }, []int{3, 8, 8}},
	{"conv1d", func(r *rand.Rand) Layer { return NewConv1D(2, 3, 5, 2, 2, r) }, []int{2, 12}},
	{"batchnorm-dense", func(r *rand.Rand) Layer { return NewBatchNorm(5) }, []int{5}},
	{"batchnorm-conv", func(r *rand.Rand) Layer { return NewBatchNorm(3) }, []int{3, 4, 4}},
	{"relu", func(r *rand.Rand) Layer { return NewReLU() }, []int{6}},
	{"tanh", func(r *rand.Rand) Layer { return NewTanh() }, []int{6}},
	{"maxpool2d", func(r *rand.Rand) Layer { return NewMaxPool2D(2) }, []int{2, 6, 6}},
	{"maxpool1d", func(r *rand.Rand) Layer { return NewMaxPool1D(2) }, []int{3, 8}},
	{"globalavgpool", func(r *rand.Rand) Layer { return NewGlobalAvgPool() }, []int{3, 4, 4}},
	{"residual-identity", func(r *rand.Rand) Layer { return NewResidual(3, 3, 1, r) }, []int{3, 5, 5}},
	{"residual-projection", func(r *rand.Rand) Layer { return NewResidual(2, 4, 2, r) }, []int{2, 6, 6}},
}

func batchInput(rng *rand.Rand, batch int, dims []int) *tensor.Tensor {
	shape := append([]int{batch}, dims...)
	return tensor.Randn(rng, 0, 1, shape...)
}

// checkReuseAcrossBatches runs a layer on batch b1, then on batch b2, then on
// the b1 input again, comparing every pass bitwise against fresh same-seed
// layers that have never reused a workspace. Any stale workspace content,
// missed re-zeroing, or result aliasing across passes shows up as a mismatch.
func checkReuseAcrossBatches(t *testing.T, tc reuseCase, b1, b2 int) {
	t.Helper()
	layer := tc.mk(rand.New(rand.NewSource(41)))

	x1 := batchInput(rand.New(rand.NewSource(42)), b1, tc.dims)
	x2 := batchInput(rand.New(rand.NewSource(43)), b2, tc.dims)

	// Pass 1 on batch b1: record outputs (cloned — the raw results are
	// workspace buffers the next pass will overwrite).
	out1 := layer.Forward(x1, true).Clone()
	g1 := tensor.Randn(rand.New(rand.NewSource(44)), 0, 1, out1.Shape()...)
	grad1 := layer.Backward(g1).Clone()

	// Pass 2 on batch b2 reuses the now-dirty workspaces; a fresh layer is
	// the uncontaminated reference.
	fresh := tc.mk(rand.New(rand.NewSource(41)))
	out2 := layer.Forward(x2, true)
	wantOut2 := fresh.Forward(x2, true)
	compareBitwise(t, tc.name+" pass2 forward", out2, wantOut2)
	g2 := tensor.Randn(rand.New(rand.NewSource(45)), 0, 1, out2.Shape()...)
	grad2 := layer.Backward(g2)
	wantGrad2 := fresh.Backward(g2)
	compareBitwise(t, tc.name+" pass2 backward", grad2, wantGrad2)
	for i, g := range layer.Grads() {
		compareBitwise(t, tc.name+" pass2 param grad", g, fresh.Grads()[i])
	}

	// Pass 3 back on the b1 input must reproduce pass 1 bit-for-bit: the
	// in-between pass on a different shape must leave no trace.
	out3 := layer.Forward(x1, true)
	compareBitwise(t, tc.name+" pass3 forward", out3, out1)
	grad3 := layer.Backward(g1)
	compareBitwise(t, tc.name+" pass3 backward", grad3, grad1)
}

func compareBitwise(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d, want %d", what, got.Len(), want.Len())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, gd[i], wd[i])
		}
	}
}

// TestWorkspaceReuseShrinkingBatch re-runs every parametric layer on a
// smaller batch than its workspaces were sized for: buffers shrink in place
// and keep stale tails.
func TestWorkspaceReuseShrinkingBatch(t *testing.T) {
	for _, tc := range reuseCases {
		t.Run(tc.name, func(t *testing.T) { checkReuseAcrossBatches(t, tc, 4, 2) })
	}
}

// TestWorkspaceReuseGrowingBatch grows the batch instead, forcing the
// workspaces through a reallocation mid-sequence.
func TestWorkspaceReuseGrowingBatch(t *testing.T) {
	for _, tc := range reuseCases {
		t.Run(tc.name, func(t *testing.T) { checkReuseAcrossBatches(t, tc, 2, 5) })
	}
}

// TestClonedModelsTrainConcurrently trains a model and its clone on the same
// data in parallel goroutines. Run under -race this proves clones share no
// workspace or cache state; the bitwise-equal gradients prove the clone is an
// exact copy.
func TestClonedModelsTrainConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m1 := NewModel(
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewBatchNorm(2),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*3*3, 4, rng),
	)
	m2 := m1.Clone()

	x := tensor.Randn(rand.New(rand.NewSource(52)), 0, 1, 3, 1, 6, 6)
	labels := []int{0, 2, 3}

	run := func(m *Model) []float64 {
		var loss SoftmaxCrossEntropy
		for step := 0; step < 3; step++ {
			out := m.Forward(x, true)
			res, err := loss.Eval(out, labels)
			if err != nil {
				t.Error(err)
				return nil
			}
			m.Backward(res.Grad)
		}
		return m.GradVector()
	}

	var wg sync.WaitGroup
	grads := make([][]float64, 2)
	for i, m := range []*Model{m1, m2} {
		wg.Add(1)
		go func(i int, m *Model) {
			defer wg.Done()
			grads[i] = run(m)
		}(i, m)
	}
	wg.Wait()

	if grads[0] == nil || grads[1] == nil {
		t.Fatal("a concurrent training run failed")
	}
	for i := range grads[0] {
		if grads[0][i] != grads[1][i] {
			t.Fatalf("grad[%d]: original %v, clone %v", i, grads[0][i], grads[1][i])
		}
	}
}

// TestModelCloneIndependence checks the clone deep-copies parameters and
// running statistics: training the clone leaves the original untouched.
func TestModelCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := NewModel(
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewBatchNorm(2),
		NewFlatten(),
		NewDense(2*6*6, 3, rng),
	)
	c := m.Clone()

	before := m.StateVector()
	cs := c.StateVector()
	for i := range before {
		if before[i] != cs[i] {
			t.Fatalf("clone state[%d] = %v, want %v", i, cs[i], before[i])
		}
	}

	// Forward in train mode mutates the clone's BatchNorm running stats;
	// nudge its parameters too.
	x := tensor.Randn(rand.New(rand.NewSource(54)), 0, 1, 2, 1, 6, 6)
	c.Forward(x, true)
	c.Params()[0].Data()[0] += 1

	after := m.StateVector()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("training the clone changed original state[%d]", i)
		}
	}
}
