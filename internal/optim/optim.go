// Package optim implements the stochastic optimizers used by the DINAR
// reproduction: plain SGD, Adagrad (the adaptive gradient descent of
// Algorithm 1 in the paper), and the ablation alternatives of §5.11 —
// Adam, AdaMax, RMSProp, and ADGD (adaptive gradient descent without
// descent).
//
// Optimizers update parameter tensors in place from gradient tensors of
// identical shapes. They hold their own per-parameter state and must be used
// with a fixed (params, grads) pairing for their whole lifetime.
package optim

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer applies one update step from gradients to parameters.
type Optimizer interface {
	// Name returns the optimizer's identifier, e.g. "adagrad".
	Name() string
	// Step updates params in place using grads. Both slices must be aligned
	// and stable across calls.
	Step(params, grads []*tensor.Tensor)
	// Reset clears accumulated state (e.g. at the start of a new FL round if
	// desired; DINAR keeps Adagrad state across local epochs of one round but
	// resets between rounds, matching Algorithm 1 where G is initialized per
	// invocation). The state vectors are zeroed in place, not dropped: a
	// client resets every round, and the next Step would otherwise allocate
	// and zero model-sized buffers again.
	Reset()
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity [][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*tensor.Tensor) {
	if s.Momentum == 0 {
		for i, p := range params {
			pd, gd := p.Data(), grads[i].Data()
			for j := range pd {
				pd[j] -= s.LR * gd[j]
			}
		}
		return
	}
	if !fits(s.velocity, params) {
		s.velocity = makeState(params)
	}
	for i, p := range params {
		pd, gd, v := p.Data(), grads[i].Data(), s.velocity[i]
		for j := range pd {
			v[j] = s.Momentum*v[j] + gd[j]
			pd[j] -= s.LR * v[j]
		}
	}
}

// Reset implements Optimizer.
func (s *SGD) Reset() { clearState(s.velocity) }

// Adagrad is the adaptive gradient descent of DINAR's Algorithm 1
// (lines 8–14): it accumulates squared gradients G and scales the step by
// 1/sqrt(G + eps) with eps = 1e-5, exactly as in the paper.
type Adagrad struct {
	LR  float64
	Eps float64

	accum [][]float64
}

var _ Optimizer = (*Adagrad)(nil)

// NewAdagrad returns an Adagrad optimizer with the paper's epsilon of 1e-5.
func NewAdagrad(lr float64) *Adagrad { return &Adagrad{LR: lr, Eps: 1e-5} }

// Name implements Optimizer.
func (a *Adagrad) Name() string { return "adagrad" }

// Step implements Optimizer.
func (a *Adagrad) Step(params, grads []*tensor.Tensor) {
	if !fits(a.accum, params) {
		a.accum = makeState(params)
	}
	for i, p := range params {
		// G <- G + grad² (Algorithm 1, line 13), then the scaled step, at
		// the host's vector width.
		tensor.AdagradStep(p.Data(), grads[i].Data(), a.accum[i], a.LR, a.Eps)
	}
}

// Reset implements Optimizer.
func (a *Adagrad) Reset() { clearState(a.accum) }

// Adam is the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	m, v [][]float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with standard hyper-parameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(params, grads []*tensor.Tensor) {
	if !fits(a.m, params) {
		a.m = makeState(params)
		a.v = makeState(params)
		a.t = 0
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		pd, gd, m, v := p.Data(), grads[i].Data(), a.m[i], a.v[i]
		for j := range pd {
			g := gd[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / bc1
			vh := v[j] / bc2
			pd[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// Reset implements Optimizer.
func (a *Adam) Reset() {
	clearState(a.m)
	clearState(a.v)
	a.t = 0
}

// AdaMax is the infinity-norm variant of Adam (Kingma & Ba, 2015).
type AdaMax struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	m, u [][]float64
}

var _ Optimizer = (*AdaMax)(nil)

// NewAdaMax returns an AdaMax optimizer with standard hyper-parameters.
func NewAdaMax(lr float64) *AdaMax {
	return &AdaMax{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *AdaMax) Name() string { return "adamax" }

// Step implements Optimizer.
func (a *AdaMax) Step(params, grads []*tensor.Tensor) {
	if !fits(a.m, params) {
		a.m = makeState(params)
		a.u = makeState(params)
		a.t = 0
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	for i, p := range params {
		pd, gd, m, u := p.Data(), grads[i].Data(), a.m[i], a.u[i]
		for j := range pd {
			g := gd[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			u[j] = math.Max(a.Beta2*u[j], math.Abs(g))
			pd[j] -= a.LR / bc1 * m[j] / (u[j] + a.Eps)
		}
	}
}

// Reset implements Optimizer.
func (a *AdaMax) Reset() {
	clearState(a.m)
	clearState(a.u)
	a.t = 0
}

// RMSProp is the RMSProp optimizer (Tieleman & Hinton).
type RMSProp struct {
	LR, Rho, Eps float64

	sq [][]float64
}

var _ Optimizer = (*RMSProp)(nil)

// NewRMSProp returns an RMSProp optimizer with decay 0.9.
func NewRMSProp(lr float64) *RMSProp { return &RMSProp{LR: lr, Rho: 0.9, Eps: 1e-8} }

// Name implements Optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }

// Step implements Optimizer.
func (r *RMSProp) Step(params, grads []*tensor.Tensor) {
	if !fits(r.sq, params) {
		r.sq = makeState(params)
	}
	for i, p := range params {
		pd, gd, sq := p.Data(), grads[i].Data(), r.sq[i]
		for j := range pd {
			g := gd[j]
			sq[j] = r.Rho*sq[j] + (1-r.Rho)*g*g
			pd[j] -= r.LR * g / (math.Sqrt(sq[j]) + r.Eps)
		}
	}
}

// Reset implements Optimizer.
func (r *RMSProp) Reset() { clearState(r.sq) }

// ADGD implements Adaptive Gradient Descent Without Descent
// (Malitsky & Mishchenko, ICML 2020): a parameter-free step size
//
//	λ_k = min( sqrt(1 + θ_{k-1}/2)·λ_{k-1},  ‖x_k − x_{k−1}‖ / (2‖∇f(x_k) − ∇f(x_{k−1})‖) )
//
// with θ_k = λ_k/λ_{k−1}. The first step uses LR0.
type ADGD struct {
	LR0 float64

	lambda, theta float64
	prevParams    [][]float64
	prevGrads     [][]float64
	started       bool
}

var _ Optimizer = (*ADGD)(nil)

// NewADGD returns an ADGD optimizer seeded with initial step size lr0.
func NewADGD(lr0 float64) *ADGD { return &ADGD{LR0: lr0} }

// Name implements Optimizer.
func (a *ADGD) Name() string { return "adgd" }

// Step implements Optimizer.
func (a *ADGD) Step(params, grads []*tensor.Tensor) {
	if !a.started || !fits(a.prevParams, params) {
		a.prevParams = snapshot(a.prevParams, params)
		a.prevGrads = snapshot(a.prevGrads, grads)
		a.lambda = a.LR0
		a.theta = math.Inf(1)
		for i, p := range params {
			pd, gd := p.Data(), grads[i].Data()
			for j := range pd {
				pd[j] -= a.lambda * gd[j]
			}
		}
		a.started = true
		return
	}
	// Compute ‖x_k − x_{k−1}‖ and ‖∇f(x_k) − ∇f(x_{k−1})‖.
	var dxSq, dgSq float64
	for i, p := range params {
		pd, gd := p.Data(), grads[i].Data()
		pp, pg := a.prevParams[i], a.prevGrads[i]
		for j := range pd {
			dx := pd[j] - pp[j]
			dg := gd[j] - pg[j]
			dxSq += dx * dx
			dgSq += dg * dg
		}
	}
	cand1 := math.Sqrt(1+a.theta/2) * a.lambda
	lambda := cand1
	if dgSq > 0 {
		cand2 := math.Sqrt(dxSq) / (2 * math.Sqrt(dgSq))
		if cand2 < lambda {
			lambda = cand2
		}
	}
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		lambda = a.LR0
	}
	a.theta = lambda / a.lambda
	a.lambda = lambda

	a.prevParams = snapshot(a.prevParams, params)
	a.prevGrads = snapshot(a.prevGrads, grads)
	for i, p := range params {
		pd, gd := p.Data(), grads[i].Data()
		for j := range pd {
			pd[j] -= lambda * gd[j]
		}
	}
}

// Reset implements Optimizer.
func (a *ADGD) Reset() {
	clearState(a.prevParams)
	clearState(a.prevGrads)
	a.started = false
}

func makeState(params []*tensor.Tensor) [][]float64 {
	state := make([][]float64, len(params))
	for i, p := range params {
		state[i] = make([]float64, p.Len())
	}
	return state
}

// fits reports whether state holds one vector per tensor, each of the
// tensor's length — the condition under which Step keeps its buffers.
func fits(state [][]float64, ts []*tensor.Tensor) bool {
	if len(state) != len(ts) {
		return false
	}
	for i, t := range ts {
		if len(state[i]) != t.Len() {
			return false
		}
	}
	return true
}

func clearState(state [][]float64) {
	for _, v := range state {
		clear(v)
	}
}

// snapshot copies the tensors' values into dst, which is reused when it fits
// and re-made when it does not.
func snapshot(dst [][]float64, ts []*tensor.Tensor) [][]float64 {
	if !fits(dst, ts) {
		dst = makeState(ts)
	}
	for i, t := range ts {
		copy(dst[i], t.Data())
	}
	return dst
}

// New constructs an optimizer by name; it is the registry used by the §5.11
// ablation harness. Supported names: sgd, adagrad, adam, adamax, rmsprop,
// adgd. Unknown names return nil.
func New(name string, lr float64) Optimizer {
	switch name {
	case "sgd":
		return NewSGD(lr, 0)
	case "adagrad":
		return NewAdagrad(lr)
	case "adam":
		return NewAdam(lr)
	case "adamax":
		return NewAdaMax(lr)
	case "rmsprop":
		return NewRMSProp(lr)
	case "adgd":
		return NewADGD(lr)
	case "sam":
		return NewSAM(lr, 0.05)
	default:
		return nil
	}
}
