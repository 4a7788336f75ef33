package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkConv2DDirectVsIm2col measures the per-shape dispatch choices at
// the tracked conv2d_step shape plus a wider mid shape: the direct vs im2col
// inference forward, and the training step with the fused vs materialized
// input-gradient stage. The committed conv2dDirectBudget default comes from
// this comparison (see README "Performance").
func BenchmarkConv2DDirectVsIm2col(b *testing.B) {
	shapes := []struct {
		name                      string
		inC, outC, k, stride, pad int
		batch, h, w               int
	}{
		{"bench8x16x16", 8, 16, 3, 1, 1, 8, 16, 16},
		{"mid16x8x8", 16, 32, 3, 1, 1, 8, 8, 8},
	}
	modes := []struct {
		name   string
		budget int
	}{
		{"direct", 1 << 30},
		{"im2col", -1},
	}
	for _, sh := range shapes {
		for _, mode := range modes {
			prev := setConv2DDirectBudget(mode.budget)
			rng := rand.New(rand.NewSource(91))
			layer := NewConv2D(sh.inC, sh.outC, sh.k, sh.stride, sh.pad, rng)
			x := tensor.Randn(rng, 0, 1, sh.batch, sh.inC, sh.h, sh.w)
			out := layer.Forward(x, true)
			g := tensor.Randn(rand.New(rand.NewSource(92)), 0, 1, out.Shape()...)
			layer.Backward(g)
			layer.Forward(x, false)
			b.Run(sh.name+"/"+mode.name+"/infer", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					layer.Forward(x, false)
				}
			})
			b.Run(sh.name+"/"+mode.name+"/step", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					layer.Forward(x, true)
					layer.Backward(g)
				}
			})
			setConv2DDirectBudget(prev)
		}
	}
}
