package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// quadratic is a convex test problem: f(x) = ½ Σ c_i x_i² with minimum at 0.
type quadratic struct {
	c []float64
	x *tensor.Tensor
	g *tensor.Tensor
	// params and grads are {x} and {g}, for callers that must not allocate
	// the slices per step.
	params, grads [1]*tensor.Tensor
}

func newQuadratic(seed int64, n int) *quadratic {
	rng := rand.New(rand.NewSource(seed))
	q := &quadratic{
		c: make([]float64, n),
		x: tensor.Randn(rng, 0, 1, n),
		g: tensor.New(n),
	}
	for i := range q.c {
		q.c[i] = 0.5 + rng.Float64()*2
	}
	q.params[0], q.grads[0] = q.x, q.g
	return q
}

func (q *quadratic) loss() float64 {
	s := 0.0
	for i, v := range q.x.Data() {
		s += 0.5 * q.c[i] * v * v
	}
	return s
}

func (q *quadratic) grad() {
	for i, v := range q.x.Data() {
		q.g.Data()[i] = q.c[i] * v
	}
}

func optimizeQuadratic(t *testing.T, opt Optimizer, steps int) (initial, final float64) {
	t.Helper()
	q := newQuadratic(11, 16)
	initial = q.loss()
	params := []*tensor.Tensor{q.x}
	grads := []*tensor.Tensor{q.g}
	for i := 0; i < steps; i++ {
		q.grad()
		opt.Step(params, grads)
	}
	return initial, q.loss()
}

func TestOptimizersReduceConvexLoss(t *testing.T) {
	tests := []struct {
		name  string
		opt   Optimizer
		steps int
	}{
		{"sgd", NewSGD(0.1, 0), 200},
		{"sgd-momentum", NewSGD(0.05, 0.9), 200},
		{"adagrad", NewAdagrad(0.5), 400},
		{"adam", NewAdam(0.05), 400},
		{"adamax", NewAdaMax(0.05), 400},
		{"rmsprop", NewRMSProp(0.01), 400},
		{"adgd", NewADGD(0.01), 200},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			initial, final := optimizeQuadratic(t, tt.opt, tt.steps)
			if final >= initial*0.01 {
				t.Fatalf("%s: loss %v -> %v, expected >99%% reduction", tt.name, initial, final)
			}
		})
	}
}

func TestAdagradMatchesAlgorithmOne(t *testing.T) {
	// Hand-computed: one parameter, g=2, lr=0.1.
	// Step 1: G=4, x -= 0.1*2/sqrt(4+1e-5).
	p := tensor.MustFromSlice([]float64{1}, 1)
	g := tensor.MustFromSlice([]float64{2}, 1)
	opt := NewAdagrad(0.1)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	want := 1 - 0.1*2/math.Sqrt(4+1e-5)
	if math.Abs(p.Data()[0]-want) > 1e-12 {
		t.Fatalf("step 1: x = %v, want %v", p.Data()[0], want)
	}
	// Step 2 with g=1: G=5.
	g.Data()[0] = 1
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	want -= 0.1 * 1 / math.Sqrt(5+1e-5)
	if math.Abs(p.Data()[0]-want) > 1e-12 {
		t.Fatalf("step 2: x = %v, want %v", p.Data()[0], want)
	}
}

func TestSGDKnownStep(t *testing.T) {
	p := tensor.MustFromSlice([]float64{1, 2}, 2)
	g := tensor.MustFromSlice([]float64{0.5, -0.5}, 2)
	NewSGD(0.1, 0).Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if math.Abs(p.Data()[0]-0.95) > 1e-12 || math.Abs(p.Data()[1]-2.05) > 1e-12 {
		t.Fatalf("sgd step: %v", p.Data())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := tensor.MustFromSlice([]float64{0}, 1)
	g := tensor.MustFromSlice([]float64{1}, 1)
	opt := NewSGD(1, 0.5)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	// v=1, x=-1
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	// v=1.5, x=-2.5
	if math.Abs(p.Data()[0]+2.5) > 1e-12 {
		t.Fatalf("momentum: x = %v, want -2.5", p.Data()[0])
	}
}

func TestResetClearsState(t *testing.T) {
	p := tensor.MustFromSlice([]float64{1}, 1)
	g := tensor.MustFromSlice([]float64{1}, 1)
	opt := NewAdagrad(0.1)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	opt.Reset()
	p.Data()[0] = 1
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	want := 1 - 0.1*1/math.Sqrt(1+1e-5)
	if math.Abs(p.Data()[0]-want) > 1e-12 {
		t.Fatalf("after reset: x = %v, want %v (fresh accumulator)", p.Data()[0], want)
	}
}

func TestADGDLambdaStaysFinite(t *testing.T) {
	q := newQuadratic(3, 8)
	opt := NewADGD(0.05)
	params := []*tensor.Tensor{q.x}
	grads := []*tensor.Tensor{q.g}
	for i := 0; i < 100; i++ {
		q.grad()
		opt.Step(params, grads)
		if l := opt.lambda; math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 {
			t.Fatalf("step %d: lambda = %v", i, l)
		}
	}
}

func TestNewRegistry(t *testing.T) {
	for _, name := range []string{"sgd", "adagrad", "adam", "adamax", "rmsprop", "adgd"} {
		opt := New(name, 0.01)
		if opt == nil {
			t.Fatalf("New(%q) = nil", name)
		}
		if opt.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, opt.Name())
		}
	}
	if New("nope", 0.01) != nil {
		t.Fatal("New should return nil for unknown optimizer")
	}
}

// Property: a zero gradient never changes parameters, for any optimizer.
func TestQuickZeroGradientFixedPoint(t *testing.T) {
	names := []string{"sgd", "adagrad", "adam", "adamax", "rmsprop", "adgd"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, name := range names {
			opt := New(name, 0.1)
			p := tensor.Randn(rng, 0, 1, 5)
			before := append([]float64(nil), p.Data()...)
			g := tensor.New(5)
			// Two steps to exercise stateful paths.
			opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
			opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
			for i := range before {
				if p.Data()[i] != before[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: SGD steps are homogeneous in the learning rate: stepping with
// lr and gradient g moves the parameter by exactly -lr*g.
func TestQuickSGDLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lr := 0.001 + rng.Float64()
		p := tensor.Randn(rng, 0, 1, 4)
		g := tensor.Randn(rng, 0, 1, 4)
		before := append([]float64(nil), p.Data()...)
		NewSGD(lr, 0).Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
		for i := range before {
			want := before[i] - lr*g.Data()[i]
			if math.Abs(p.Data()[i]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// resetCase names one optimizer with the way to reach its state vectors.
type resetCase struct {
	name  string
	mk    func() Optimizer
	state func(Optimizer) [][][]float64
}

var resetCases = []resetCase{
	{"sgd-momentum", func() Optimizer { return NewSGD(0.05, 0.9) },
		func(o Optimizer) [][][]float64 { return [][][]float64{o.(*SGD).velocity} }},
	{"adagrad", func() Optimizer { return NewAdagrad(0.5) },
		func(o Optimizer) [][][]float64 { return [][][]float64{o.(*Adagrad).accum} }},
	{"adam", func() Optimizer { return NewAdam(0.05) },
		func(o Optimizer) [][][]float64 { a := o.(*Adam); return [][][]float64{a.m, a.v} }},
	{"adamax", func() Optimizer { return NewAdaMax(0.05) },
		func(o Optimizer) [][][]float64 { a := o.(*AdaMax); return [][][]float64{a.m, a.u} }},
	{"rmsprop", func() Optimizer { return NewRMSProp(0.01) },
		func(o Optimizer) [][][]float64 { return [][][]float64{o.(*RMSProp).sq} }},
	{"adgd", func() Optimizer { return NewADGD(0.01) },
		func(o Optimizer) [][][]float64 { a := o.(*ADGD); return [][][]float64{a.prevParams, a.prevGrads} }},
	{"sam", func() Optimizer { return NewSAM(0.05, 0.05) },
		func(o Optimizer) [][][]float64 { return [][][]float64{o.(*SAM).eps} }},
}

// fullStep is one training-loop step: two-phase for SAM (re-evaluating the
// quadratic's gradient at the perturbed point; its state exists only on that
// path), Step for everything else.
func fullStep(opt Optimizer, q *quadratic) {
	params, grads := q.params[:], q.grads[:]
	q.grad()
	two, ok := opt.(TwoPhase)
	if !ok {
		opt.Step(params, grads)
		return
	}
	if two.FirstStep(params, grads) {
		q.grad()
	}
	two.SecondStep(params, grads)
}

// TestResetKeepsStateBuffers checks the in-place Reset: the state vectors
// survive it (same backing arrays, all zero), and training on from the reset
// optimizer is bit-identical to training with a fresh one.
func TestResetKeepsStateBuffers(t *testing.T) {
	for _, tc := range resetCases {
		t.Run(tc.name, func(t *testing.T) {
			used, q := tc.mk(), newQuadratic(5, 16)
			for i := 0; i < 3; i++ {
				fullStep(used, q)
			}
			before := tc.state(used)
			if len(before[0]) != 1 {
				t.Fatalf("no state after three steps: %v", before)
			}
			sameArrays := func(after string) {
				t.Helper()
				for s, state := range tc.state(used) {
					if &state[0][0] != &before[s][0][0] {
						t.Errorf("state %d: another backing array after %s", s, after)
					}
				}
			}
			used.Reset()
			sameArrays("Reset")
			for s, state := range tc.state(used) {
				for j, v := range state[0] {
					if v != 0 {
						t.Fatalf("state %d[%d] = %v after Reset, want 0", s, j, v)
					}
				}
			}

			fresh, qf := tc.mk(), newQuadratic(7, 16)
			copy(qf.x.Data(), q.x.Data())
			copy(qf.c, q.c)
			for i := 0; i < 3; i++ {
				fullStep(used, q)
				fullStep(fresh, qf)
			}
			if j := kerneltest.FirstDiff(q.x.Data(), qf.x.Data()); j >= 0 {
				t.Fatalf("x[%d] = %v after Reset+3 steps, fresh optimizer %v", j, q.x.Data()[j], qf.x.Data()[j])
			}
			sameArrays("Reset and three steps")
		})
	}
}

// TestResetStepZeroAllocs is the allocation guard behind `make alloc`: a
// round's Reset and its steps allocate nothing once the state is sized.
func TestResetStepZeroAllocs(t *testing.T) {
	for _, tc := range resetCases {
		t.Run(tc.name, func(t *testing.T) {
			opt, q := tc.mk(), newQuadratic(5, 16)
			fullStep(opt, q)
			fullStep(opt, q)
			allocs := testing.AllocsPerRun(10, func() {
				opt.Reset()
				fullStep(opt, q)
				fullStep(opt, q)
			})
			if allocs != 0 {
				t.Errorf("%s: Reset + two steps allocate %v times, want 0", tc.name, allocs)
			}
		})
	}
}
