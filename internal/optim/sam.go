package optim

import (
	"math"

	"repro/internal/tensor"
)

// TwoPhase is implemented by optimizers that need a second gradient
// evaluation per step (sharpness-aware minimization). The training loop
// calls FirstStep with the batch gradient, re-evaluates the loss gradient at
// the perturbed parameters, and calls SecondStep with the new gradient.
type TwoPhase interface {
	Optimizer
	// FirstStep perturbs params toward the local worst case and returns true
	// when a second gradient pass is required. Implementations must restore
	// params inside SecondStep.
	FirstStep(params, grads []*tensor.Tensor) bool
	// SecondStep restores the original parameters and applies the update
	// using the gradients measured at the perturbed point.
	SecondStep(params, grads []*tensor.Tensor)
}

// SAM is sharpness-aware minimization (Foret et al.), the optimizer inside
// DP-FedSAM (Shi et al., CVPR 2023 — one of the paper's Table 1 baselines):
//
//	ε = ρ · g / ‖g‖          (ascend to the local worst case)
//	w ← w + ε; g' = ∇L(w+ε)  (second pass)
//	w ← w − ε; base step with g'
//
// The base update is plain SGD with the configured learning rate.
type SAM struct {
	LR  float64
	Rho float64

	eps       [][]float64 // the applied perturbation, undone in SecondStep
	perturbed bool        // whether eps is applied and not yet undone
}

var _ TwoPhase = (*SAM)(nil)

// NewSAM returns a SAM optimizer with neighbourhood radius rho.
func NewSAM(lr, rho float64) *SAM { return &SAM{LR: lr, Rho: rho} }

// Name implements Optimizer.
func (s *SAM) Name() string { return "sam" }

// FirstStep implements TwoPhase: w ← w + ρ·g/‖g‖.
func (s *SAM) FirstStep(params, grads []*tensor.Tensor) bool {
	norm := 0.0
	for _, g := range grads {
		for _, v := range g.Data() {
			norm += v * v
		}
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		s.perturbed = false
		return false
	}
	scale := s.Rho / norm
	if !fits(s.eps, params) {
		s.eps = makeState(params)
	}
	for i, p := range params {
		pd, gd, e := p.Data(), grads[i].Data(), s.eps[i]
		for j := range pd {
			e[j] = scale * gd[j]
			pd[j] += e[j]
		}
	}
	s.perturbed = true
	return true
}

// SecondStep implements TwoPhase: restore w and descend with the perturbed
// gradient.
func (s *SAM) SecondStep(params, grads []*tensor.Tensor) {
	for i, p := range params {
		pd, gd := p.Data(), grads[i].Data()
		if s.perturbed {
			e := s.eps[i]
			for j := range pd {
				pd[j] -= e[j]
			}
		}
		for j := range pd {
			pd[j] -= s.LR * gd[j]
		}
	}
	s.perturbed = false
}

// Step implements Optimizer for callers that cannot provide a second pass:
// it degrades to plain SGD.
func (s *SAM) Step(params, grads []*tensor.Tensor) {
	for i, p := range params {
		pd, gd := p.Data(), grads[i].Data()
		for j := range pd {
			pd[j] -= s.LR * gd[j]
		}
	}
}

// Reset implements Optimizer.
func (s *SAM) Reset() {
	clearState(s.eps)
	s.perturbed = false
}
