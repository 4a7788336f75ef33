package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/kerneltest"
)

// TestAdagradStepBitIdentical holds AdagradStep to the scalar update written
// out here, over three steps (so G carries state) at every length up to
// three vectors past the widest and at a model size, with ±0, ±Inf, the
// hardware's NaN, subnormal and huge gradients and an accumulator that
// starts non-zero.
func TestAdagradStepBitIdentical(t *testing.T) {
	special := append(slices.Clone(kerneltest.HardwareNaN), 5e-324, 1e300, -1e-300)
	serial.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(73, nil)
		for _, n := range kerneltest.Lengths(27, 1000003) {
			p, acc := g.Normal(n), g.Normal(n)
			for j := range acc {
				acc[j] = math.Abs(acc[j])
			}
			var grads [3][]float64
			for step := range grads {
				grads[step] = g.Normal(n)
				for i, v := range special {
					if n > 0 {
						grads[step][(i*7+step)%n] = v
					}
				}
			}
			for steps := 1; steps <= len(grads); steps++ {
				emit(adagradCase(fmt.Sprintf("n=%d steps=%d", n, steps), p, acc, grads[:steps]))
			}
		}
	})
}

// adagradCase holds AdagradStep over the given gradients to the scalar
// update, from the parameters p and the accumulator acc.
func adagradCase(name string, p, acc []float64, grads [][]float64) kerneltest.Case {
	const lr, eps = 0.01, 1e-5
	return kerneltest.Case{Name: name, Dst: [][]float64{p, acc},
		Ref: func(d [][]float64) [][]float64 {
			for _, gs := range grads {
				for j, gj := range gs {
					d[1][j] += gj * gj
					d[0][j] -= lr * gj / math.Sqrt(d[1][j]+eps)
				}
			}
			return d
		},
		Run: func(d [][]float64) ([][]float64, int) {
			for _, gs := range grads {
				AdagradStep(d[0], gs, d[1], lr, eps)
			}
			return d, -1
		}}
}

// BenchmarkAdagradStep times one step over FCNN6's parameter count (the
// client's optimizer runs it once a batch) on every tier the host runs.
func BenchmarkAdagradStep(b *testing.B) {
	const n = 485_572
	g := kerneltest.NewGen(79, nil)
	p, grad, acc := g.Normal(n), g.Normal(n), make([]float64, n)
	kt.Bench(b, "", 0, "", func() { AdagradStep(p, grad, acc, 1e-9, 1e-5) })
}
