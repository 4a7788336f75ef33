package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestAdagradStepBitIdentical holds AdagradStep, on every tier the host runs,
// to the scalar update written out here, over three steps (so G carries
// state) at every length up to three vectors past the widest and at a model
// size, with ±0, ±Inf, the hardware's NaN, subnormal and huge gradients and
// an accumulator that starts non-zero.
func TestAdagradStepBitIdentical(t *testing.T) {
	const lr, eps = 0.01, 1e-5
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff8 << 48), 5e-324, 1e300, -1e-300}
	rng := rand.New(rand.NewSource(73))
	lengths := []int{0, 1000003}
	for n := 1; n <= 27; n++ {
		lengths = append(lengths, n)
	}
	forEachTier(t, func(t *testing.T) {
		for _, n := range lengths {
			p, acc := randSlice(rng, n), make([]float64, n)
			for j := range acc {
				acc[j] = math.Abs(rng.NormFloat64())
			}
			wantP, wantAcc := append([]float64(nil), p...), append([]float64(nil), acc...)
			for step := 0; step < 3; step++ {
				g := randSlice(rng, n)
				for i, v := range special {
					if n > 0 {
						g[(i*7+step)%n] = v
					}
				}
				for j, gj := range g {
					wantAcc[j] += gj * gj
					wantP[j] -= lr * gj / math.Sqrt(wantAcc[j]+eps)
				}
				AdagradStep(p, g, acc, lr, eps)
				for j := range p {
					if math.Float64bits(p[j]) != math.Float64bits(wantP[j]) || math.Float64bits(acc[j]) != math.Float64bits(wantAcc[j]) {
						t.Fatalf("n=%d step %d: p[%d], G[%d] = %v, %v; scalar %v, %v", n, step, j, j, p[j], acc[j], wantP[j], wantAcc[j])
					}
				}
			}
		}
	})
}

// BenchmarkAdagradStep times one step over FCNN6's parameter count (the
// client's optimizer runs it once a batch) on every tier the host runs.
func BenchmarkAdagradStep(b *testing.B) {
	const n = 485_572
	rng := rand.New(rand.NewSource(79))
	p, g, acc := randSlice(rng, n), randSlice(rng, n), make([]float64, n)
	ForEachKernelISA(func(name string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AdagradStep(p, g, acc, 1e-9, 1e-5)
			}
		})
	})
}
