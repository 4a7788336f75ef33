package tensor

import "math"

// AdagradStep applies one Adagrad update to p in place: for every j,
//
//	acc[j] += g[j]·g[j]
//	p[j]   -= lr·g[j] / √(acc[j] + eps)
//
// g and acc must be at least as long as p. The vector kernel computes the
// same bits as this scalar loop (see adagrad_amd64.s); the loop runs what is
// left past the last full vector.
func AdagradStep(p, g, acc []float64, lr, eps float64) {
	n := len(p)
	g, acc = g[:n], acc[:n]
	j := 0
	if kernelISA >= isaAVX2 && n >= 4 {
		j = n &^ 3
		adagradAVX2(&p[0], &g[0], &acc[0], j, lr, eps)
	}
	for ; j < n; j++ {
		gj := g[j]
		acc[j] += gj * gj
		p[j] -= lr * gj / math.Sqrt(acc[j]+eps)
	}
}
