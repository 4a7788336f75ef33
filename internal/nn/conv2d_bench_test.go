package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// conv2dBenchShapes are the tracked conv2d_step shape and every distinct
// convolution VGG11 and ResNet20 run on their 3×16×16 inputs at batch 64.
var conv2dBenchShapes = []struct {
	inC, outC, k, stride, pad int
	batch, h, w               int
}{
	{8, 16, 3, 1, 1, 8, 16, 16},  // conv2d_step
	{3, 4, 3, 1, 1, 64, 16, 16},  // VGG11 conv 0, ResNet20 stem
	{4, 8, 3, 1, 1, 64, 8, 8},    // VGG11 conv 1
	{8, 16, 3, 1, 1, 64, 4, 4},   // VGG11 conv 2
	{16, 16, 3, 1, 1, 64, 4, 4},  // VGG11 conv 3, ResNet20 stage 3
	{16, 32, 3, 1, 1, 64, 2, 2},  // VGG11 conv 4
	{32, 32, 3, 1, 1, 64, 2, 2},  // VGG11 convs 5-7
	{4, 4, 3, 1, 1, 64, 16, 16},  // ResNet20 stage 1
	{4, 8, 3, 2, 1, 64, 16, 16},  // ResNet20 stage 2 entry
	{8, 8, 3, 1, 1, 64, 8, 8},    // ResNet20 stage 2
	{8, 16, 3, 2, 1, 64, 8, 8},   // ResNet20 stage 3 entry
	{4, 8, 1, 2, 0, 64, 16, 16},  // ResNet20 projection 1
	{8, 16, 1, 2, 0, 64, 8, 8},   // ResNet20 projection 2
	{32, 32, 3, 1, 1, 256, 2, 2}, // VGG11 convs 5-7 at an evaluation batch
}

// BenchmarkConv2DShapes times the inference forward and the training step
// (Forward + Backward) at every shape of conv2dBenchShapes.
func BenchmarkConv2DShapes(b *testing.B) {
	for _, sh := range conv2dBenchShapes {
		rng := rand.New(rand.NewSource(91))
		layer := NewConv2D(sh.inC, sh.outC, sh.k, sh.stride, sh.pad, rng)
		x := tensor.Randn(rng, 0, 1, sh.batch, sh.inC, sh.h, sh.w)
		out := layer.Forward(x, true)
		g := tensor.Randn(rand.New(rand.NewSource(92)), 0, 1, out.Shape()...)
		name := fmt.Sprintf("%dx%dx%dx%d-%d-k%ds%d", sh.batch, sh.inC, sh.h, sh.w, sh.outC, sh.k, sh.stride)
		b.Run(name+"/infer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, false)
			}
		})
		b.Run(name+"/step", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, true)
				layer.Backward(g)
			}
		})
	}
}
