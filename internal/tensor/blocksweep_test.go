package tensor

import (
	"fmt"
	"testing"

	"repro/internal/kerneltest"
)

// BenchmarkGEMMBlockSweep is the committed block-size sweep behind the
// default (MC, NC) choice: it times every candidate pair at the tracked
// matmul shapes, the conv2d im2col-GEMM shape and FCNN6's first forward, over
// the three layouts. Run it with
//
//	go test ./internal/tensor -run xxx -bench GEMMBlockSweep -benchtime 200ms
//
// and set the gemmMC/gemmNC defaults in blocked.go to the winner. KC is not
// swept: the kernels keep a tile's accumulators in registers over the full
// inner dimension (see blocked.go).
func BenchmarkGEMMBlockSweep(b *testing.B) {
	restoreGEMM(b)
	shapes := []struct {
		name    string
		m, k, n int
		layout  string
	}{
		{"matmul_256x128x64", 256, 128, 64, "nn"},
		{"transa_256x128x64", 256, 128, 64, "ta"},
		{"transb_256x128x64", 256, 128, 64, "tb"},
		{"conv2d_gemm_2048x72x16", 2048, 72, 16, "tb"},
		{"fcnn6_fwd_64x600x512", 64, 600, 512, "tb"},
	}
	mcs := []int{32, 64, 128, 256}
	ncs := []int{64, 128, 256, 512}
	g := kerneltest.NewGen(47, nil)
	for _, s := range shapes {
		a, bb := gemmOperands(g, s.m, s.k, s.n)
		out := make([]float64, s.m*s.n)
		for _, mc := range mcs {
			for _, nc := range ncs {
				b.Run(fmt.Sprintf("%s/mc%d_nc%d", s.name, mc, nc), func(b *testing.B) {
					gemmMC, gemmNC = mc, nc
					gemmMinVolume = 1
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						gemmKernels[s.layout].dispatch(out, a, bb, s.m, s.k, s.n)
					}
				})
			}
		}
	}
}

// BenchmarkGEMMTiers times every kernel tier the host runs (scalar is the
// naive row kernels) at the tracked shapes and at the products one training
// step of each model spends its GEMM time in: FCNN6's first forward, its
// largest weight gradient and input gradient, and VGG11's first conv weight
// gradient, whose 4 output rows and 27 columns are all border. Run it with
//
//	go test ./internal/tensor -run xxx -bench GEMMTiers -cpu 1
func BenchmarkGEMMTiers(b *testing.B) {
	restoreGEMM(b)
	shapes := []struct {
		name    string
		m, k, n int
		layout  string
	}{
		{"matmul_256x128x64", 256, 128, 64, "nn"},
		{"transa_256x128x64", 256, 128, 64, "ta"},
		{"transb_256x128x64", 256, 128, 64, "tb"},
		{"conv2d_gemm_2048x72x16", 2048, 72, 16, "tb"},
		{"fcnn6_fwd_64x600x512", 64, 600, 512, "tb"},
		{"fcnn6_gw_512x64x600", 512, 64, 600, "ta"},
		{"fcnn6_gradin_64x512x256", 64, 512, 256, "nn"},
		{"vgg11_conv1_gw_4x16384x27", 4, 16384, 27, "ta"},
	}
	g := kerneltest.NewGen(53, nil)
	for _, s := range shapes {
		a, bb := gemmOperands(g, s.m, s.k, s.n)
		out := make([]float64, s.m*s.n)
		ForEachKernelISA(func(name string) {
			b.Run(s.name+"/"+name, func(b *testing.B) {
				gemmMinVolume = 1
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					gemmKernels[s.layout].dispatch(out, a, bb, s.m, s.k, s.n)
				}
			})
		})
	}
}
