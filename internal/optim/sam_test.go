package optim

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestSAMReducesConvexLoss(t *testing.T) {
	q := newQuadratic(21, 16)
	opt := NewSAM(0.1, 0.01)
	params := []*tensor.Tensor{q.x}
	grads := []*tensor.Tensor{q.g}
	initial := q.loss()
	for i := 0; i < 200; i++ {
		q.grad()
		if opt.FirstStep(params, grads) {
			q.grad() // gradient at the perturbed point
		}
		opt.SecondStep(params, grads)
	}
	if final := q.loss(); final >= initial*0.01 {
		t.Fatalf("SAM loss %v -> %v", initial, final)
	}
}

func TestSAMFirstStepPerturbsByRho(t *testing.T) {
	p := tensor.MustFromSlice([]float64{1, 1}, 2)
	g := tensor.MustFromSlice([]float64{3, 4}, 2)
	opt := NewSAM(0.1, 0.5)
	if !opt.FirstStep([]*tensor.Tensor{p}, []*tensor.Tensor{g}) {
		t.Fatal("FirstStep should request a second pass")
	}
	// Perturbation = rho * g/||g|| = 0.5*[0.6, 0.8].
	if math.Abs(p.Data()[0]-1.3) > 1e-12 || math.Abs(p.Data()[1]-1.4) > 1e-12 {
		t.Fatalf("perturbed params = %v", p.Data())
	}
	// SecondStep restores and applies -lr*g'.
	g2 := tensor.MustFromSlice([]float64{1, 0}, 2)
	opt.SecondStep([]*tensor.Tensor{p}, []*tensor.Tensor{g2})
	if math.Abs(p.Data()[0]-0.9) > 1e-12 || math.Abs(p.Data()[1]-1.0) > 1e-12 {
		t.Fatalf("restored+updated params = %v", p.Data())
	}
}

func TestSAMZeroGradientSkipsSecondPass(t *testing.T) {
	p := tensor.MustFromSlice([]float64{1}, 1)
	g := tensor.New(1)
	opt := NewSAM(0.1, 0.5)
	if opt.FirstStep([]*tensor.Tensor{p}, []*tensor.Tensor{g}) {
		t.Fatal("zero gradient should not request a second pass")
	}
	if p.Data()[0] != 1 {
		t.Fatal("zero gradient perturbed params")
	}
	opt.SecondStep([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if p.Data()[0] != 1 {
		t.Fatal("zero gradient changed params")
	}
}

func TestSAMPlainStepFallback(t *testing.T) {
	p := tensor.MustFromSlice([]float64{1}, 1)
	g := tensor.MustFromSlice([]float64{2}, 1)
	opt := NewSAM(0.1, 0.5)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if math.Abs(p.Data()[0]-0.8) > 1e-12 {
		t.Fatalf("fallback step = %v", p.Data()[0])
	}
}

func TestSAMInRegistry(t *testing.T) {
	opt := New("sam", 0.1)
	if opt == nil || opt.Name() != "sam" {
		t.Fatal("sam not registered")
	}
	if _, ok := opt.(TwoPhase); !ok {
		t.Fatal("sam should implement TwoPhase")
	}
}
