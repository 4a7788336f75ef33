package tensor

import (
	"fmt"
	"math/rand"
	"testing"
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
	rng := rand.New(rand.NewSource(47))
	for _, s := range shapes {
		a, bb := gemmOperands(rng, s.m, s.k, s.n, s.layout)
		out := make([]float64, s.m*s.n)
		for _, mc := range mcs {
			for _, nc := range ncs {
				b.Run(fmt.Sprintf("%s/mc%d_nc%d", s.name, mc, nc), func(b *testing.B) {
					gemmMC, gemmNC = mc, nc
					gemmMinVolume = 1
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						runBlocked(out, a, bb, s.m, s.k, s.n, s.layout)
					}
				})
			}
		}
	}
}

// BenchmarkGEMMNaiveVsBlocked reports the naive row kernels next to the
// blocked path at the tracked shapes, for the README speedup table.
func BenchmarkGEMMNaiveVsBlocked(b *testing.B) {
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
	}
	rng := rand.New(rand.NewSource(53))
	for _, s := range shapes {
		a, bb := gemmOperands(rng, s.m, s.k, s.n, s.layout)
		out := make([]float64, s.m*s.n)
		b.Run(s.name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				naiveGEMM(out, a, bb, s.m, s.k, s.n, s.layout)
			}
		})
		b.Run(s.name+"/blocked", func(b *testing.B) {
			gemmMinVolume = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runBlocked(out, a, bb, s.m, s.k, s.n, s.layout)
			}
		})
	}
}
