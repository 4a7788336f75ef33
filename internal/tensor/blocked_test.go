package tensor

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/parallel"
)

// restoreGEMM resets the blocked-GEMM tuning knobs mutated by a test.
func restoreGEMM(t testing.TB) {
	t.Helper()
	mc, nc, mv := gemmMC, gemmNC, gemmMinVolume
	t.Cleanup(func() { gemmMC, gemmNC, gemmMinVolume = mc, nc, mv })
}

// gemmLayouts are the operand layouts: A·B, Aᵀ·B and A·Bᵀ.
var gemmLayouts = []string{"nn", "ta", "tb"}

// gemmKernels holds each layout's naive row kernels (run serially, the
// reference), its production dispatch and its exported entry point.
var gemmKernels = map[string]struct {
	naive, dispatch func(out, a, b []float64, m, k, n int)
	exported        func(out, a, b *Tensor) error
}{
	"nn": {func(o, a, b []float64, m, k, n int) { matMulRows(o, a, b, 0, m, k, n) }, matMulInto, MatMulInto},
	"ta": {func(o, a, b []float64, m, k, n int) { matMulTransACols(o, a, b, 0, m, m, k, n) }, matMulTransAInto, MatMulTransAInto},
	"tb": {func(o, a, b []float64, m, k, n int) { matMulTransBRows(o, a, b, 0, m, k, n) }, matMulTransBInto, MatMulTransBInto},
}

// gemmOperands draws the (a, b) storage of any layout: m·k and k·n values,
// whichever is stored transposed. A quarter of a's elements are forced to
// exact zero so the skip path is exercised.
func gemmOperands(g *kerneltest.Gen, m, k, n int) (a, b []float64) {
	a, b = g.Normal(m*k), g.Normal(k*n)
	for i := range a {
		if g.Intn(4) == 0 {
			a[i] = 0
		}
	}
	return a, b
}

// gemmCase holds the production dispatch for a layout (the blocked path on
// the SIMD tiers whenever gemmMinVolume allows it, the naive kernels on the
// scalar one) to the naive kernels run serially, over a stale output.
func gemmCase(g *kerneltest.Gen, name string, m, k, n int, layout string, a, b []float64) kerneltest.Case {
	return kerneltest.Case{Name: fmt.Sprintf("%s %s %dx%dx%d", name, layout, m, k, n), Dst: [][]float64{g.Values(m * n)},
		Ref: func(d [][]float64) [][]float64 { gemmKernels[layout].naive(d[0], a, b, m, k, n); return d },
		Run: func(d [][]float64) ([][]float64, int) {
			gemmKernels[layout].dispatch(d[0], a, b, m, k, n)
			return d, -1
		}}
}

// withBlocks runs c under the given (MC, NC) blocks.
func withBlocks(c kerneltest.Case, mc, nc int) kerneltest.Case {
	run := c.Run
	c.Name += fmt.Sprintf(" mc=%d nc=%d", mc, nc)
	c.Run = func(d [][]float64) ([][]float64, int) { gemmMC, gemmNC = mc, nc; return run(d) }
	return c
}

// gemmRows runs the cases rows emits, drawn from a Gen seeded with seed,
// with every shape on the blocked path.
func gemmRows(t *testing.T, e kerneltest.Env, seed int64, rows func(g *kerneltest.Gen, emit func(kerneltest.Case))) {
	restoreGEMM(t)
	gemmMinVolume = 1
	e.Run(t, func(emit func(kerneltest.Case)) { rows(kerneltest.NewGen(seed, kerneltest.HardwareNaN), emit) })
}

// TestBlockedGEMMBitIdenticalEdgeShapes pits the blocked kernels against the
// naive reference on every combination of the register-tile edge sizes
// (1, MR−1, MR, MR+1) and primes that leave ragged panels at every blocking
// level, for all three layouts (the AVX-512 tile is 2·MR rows, so 7, 9 and
// 13 leave it ragged too). Results must be bit-identical: the blocked path
// reorders loops and packs panels but never regroups an element's
// k-ascending accumulation.
func TestBlockedGEMMBitIdenticalEdgeShapes(t *testing.T) {
	dims := []int{1, gemmMR - 1, gemmMR, gemmMR + 1, 7, 9, 13, 31, 97}
	gemmRows(t, kt, 23, func(g *kerneltest.Gen, emit func(kerneltest.Case)) {
		for _, m := range dims {
			for _, k := range dims {
				for _, n := range dims {
					for _, layout := range gemmLayouts {
						a, b := gemmOperands(g, m, k, n)
						emit(gemmCase(g, "edge", m, k, n, layout, a, b))
					}
				}
			}
		}
	})
}

// TestBlockedGEMMBitIdenticalBlockParams forces pathologically small and
// misaligned (MC, NC) blocks so every blocking boundary — partial A panels,
// partial B panels, NC windows cutting mid-panel — is crossed within one
// multiply.
func TestBlockedGEMMBitIdenticalBlockParams(t *testing.T) {
	params := [][2]int{
		{gemmMR, gemmNR}, // minimum legal blocks: one tile each
		{8, 12},
		{16, 64},
		{1, 1},     // below one tile: every element takes the edge code
		{5, 9},     // nc rounded up to a panel multiple
		{512, 512}, // blocks larger than the matrix
	}
	const m, k, n = 37, 29, 33
	gemmRows(t, kt, 29, func(g *kerneltest.Gen, emit func(kerneltest.Case)) {
		for _, layout := range gemmLayouts {
			a, b := gemmOperands(g, m, k, n)
			for _, p := range params {
				emit(withBlocks(gemmCase(g, "blocks", m, k, n, layout, a, b), p[0], p[1]))
			}
		}
	})
}

// TestBlockedGEMMBitIdenticalNonFinite checks that the zero-skip convention
// survives blocking for non-finite inputs: a zero A element must skip its
// products (so 0×Inf never manufactures a NaN that the naive kernel would
// not), while Inf/NaN against nonzero elements must propagate identically.
// Then two NaNs with different payloads meet in one product: math.NaN() in
// A, the hardware's NaN in B. x86 returns the first source's NaN, so every
// tier must take B first, as the compiled scalar av*bv does, in a kernel
// tile (row 0) and in the edge rows (row m−1) alike.
func TestBlockedGEMMBitIdenticalNonFinite(t *testing.T) {
	const m, k, n = 9, 11, 10
	gemmRows(t, kt, 31, func(g *kerneltest.Gen, emit func(kerneltest.Case)) {
		for _, layout := range gemmLayouts {
			a, b := gemmOperands(g, m, k, n)
			a[1], a[len(a)/2] = math.Inf(1), math.NaN()
			b[0], b[len(b)/3], b[len(b)-1] = math.Inf(-1), math.NaN(), math.Inf(1)
			emit(gemmCase(g, "non-finite", m, k, n, layout, a, b))
		}
		for _, layout := range gemmLayouts {
			a, b := gemmOperands(g, m, k, n)
			const p, j = 2, 3
			for _, r := range []int{0, m - 1} {
				a[gemmIndex(layout == "ta", r, p, m, k)] = math.NaN()
			}
			b[gemmIndex(layout == "tb", p, j, k, n)] = math.Float64frombits(0xfff8 << 48)
			emit(gemmCase(g, "two NaNs", m, k, n, layout, a, b))
		}
	})
}

// gemmIndex is the index of element (r, c) of a rows×cols operand stored
// row-major, or transposed when trans.
func gemmIndex(trans bool, r, c, rows, cols int) int {
	if trans {
		return c*rows + r
	}
	return r*cols + c
}

// TestBlockedGEMMSignedZeros pins the argument the AVX-512 kernels rest on:
// with B finite they add the products of ±0 A elements instead of skipping
// them, which is invisible only because an accumulator never holds −0. A is
// all ±0 except one column whose products cancel exactly, and B is finite
// with both signs, so every output is a sum that is zero; each must come out
// +0 on every tier, as the naive kernels' skipping gives it on the scalar
// one.
func TestBlockedGEMMSignedZeros(t *testing.T) {
	const m, k, n = 13, 6, 11
	gemmRows(t, kt, 71, func(g *kerneltest.Gen, emit func(kerneltest.Case)) {
		for _, layout := range gemmLayouts {
			a, b := gemmOperands(g, m, k, n)
			for i := range a {
				a[i] = math.Copysign(0, float64(i%2)-0.5)
			}
			for i := range b {
				b[i] = -math.Abs(b[i]) - 1
			}
			// A[r][0] = A[r][1] = 1 and B[1][j] = −B[0][j]: an exact
			// cancellation first, then only ±0 products.
			for r := 0; r < m; r++ {
				a[gemmIndex(layout == "ta", r, 0, m, k)], a[gemmIndex(layout == "ta", r, 1, m, k)] = 1, 1
			}
			for j := 0; j < n; j++ {
				b[gemmIndex(layout == "tb", 1, j, k, n)] = -b[gemmIndex(layout == "tb", 0, j, k, n)]
			}
			c := gemmCase(g, "signed zeros", m, k, n, layout, a, b)
			c.Ref = func(d [][]float64) [][]float64 { clear(d[0]); return d }
			emit(c)
		}
	})
}

// TestBlockedGEMMPoolParallelBitIdentical checks that the blocked path, like
// the naive kernels, is bit-identical between a serial pool and any worker
// count: chunk boundaries are deterministic and every output element is
// computed wholly inside one chunk.
func TestBlockedGEMMPoolParallelBitIdentical(t *testing.T) {
	gemmRows(t, kt.WithPools(1, 2, 4, 7), 37, func(g *kerneltest.Gen, emit func(kerneltest.Case)) {
		for _, s := range [][3]int{{3, 200, 1}, {7, 11, 13}, {31, 17, 29}, {64, 33, 12}} {
			for _, layout := range gemmLayouts {
				a, b := gemmOperands(g, s[0], s[1], s[2])
				emit(gemmCase(g, "pool", s[0], s[1], s[2], layout, a, b))
			}
		}
	})
}

// tensorCase is gemmCase through the exported Tensor entry points.
func tensorCase(c kerneltest.Case, m, k, n int, layout string, a, b []float64) kerneltest.Case {
	aShape, bShape := []int{m, k}, []int{k, n}
	if layout == "ta" {
		aShape = []int{k, m}
	} else if layout == "tb" {
		bShape = []int{n, k}
	}
	c.Run = func(d [][]float64) ([][]float64, int) {
		if err := gemmKernels[layout].exported(&Tensor{shape: []int{m, n}, data: d[0]}, &Tensor{shape: aShape, data: a}, &Tensor{shape: bShape, data: b}); err != nil {
			panic(err)
		}
		return d, -1
	}
	return c
}

// TestBlockedGEMMDispatchThreshold checks the volume dispatch under the
// production settings: the exported entry point agrees with the naive
// reference at a shape that dispatches to the blocked path (the alloc tests
// depend on shapes under gemmMinVolume never paying for packing).
func TestBlockedGEMMDispatchThreshold(t *testing.T) {
	const m, k, n = 40, 41, 42 // 68880 sits above the default threshold
	if m*k*n < gemmMinVolume {
		t.Fatalf("test shape below gemmMinVolume=%d; pick a bigger one", gemmMinVolume)
	}
	kt.Run(t, func(emit func(kerneltest.Case)) {
		g := kerneltest.NewGen(41, kerneltest.HardwareNaN)
		a, b := g.Normal(m*k), g.Normal(k*n)
		emit(tensorCase(gemmCase(g, "dispatch", m, k, n, "nn", a, b), m, k, n, "nn", a, b))
	})
}

// TestPackedTransBBitIdentical pits the panel-packed MatMulTransB path
// against the naive row kernel at the shapes the models run (dense 600→512,
// the im2col widths 27 and 36, output widths below, at and past one panel),
// with signed zeros, the hardware's NaN and ±Inf planted in A — where a
// zero must skip its products — and in B, on one worker and on four, under
// the default blocks and under blocks that are multiples of neither tile
// dimension. Whatever pack buffer the pool hands out next starts as
// garbage, padding included.
func TestPackedTransBBitIdentical(t *testing.T) {
	gemmRows(t, kt.WithPools(1, 4), 59, func(g *kerneltest.Gen, emit func(kerneltest.Case)) {
		for _, m := range []int{1, 3, 4, 5, 64} {
			for _, k := range []int{1, 27, 600} {
				for _, n := range []int{1, 3, 4, 7, 8, 9, 27, 36, 100, 512} {
					a, b := gemmOperands(g, m, k, n)
					for i, v := range kerneltest.HardwareNaN {
						a[(i*7+m)%len(a)], b[(i*11+n)%len(b)] = v, v
					}
					for _, blocks := range [][2]int{{64, 256}, {5, 9}} {
						c := withBlocks(gemmCase(g, "packed", m, k, n, "tb", a, b), blocks[0], blocks[1])
						run := c.Run
						c.Run = func(d [][]float64) ([][]float64, int) {
							pb := getPackBuf(k * roundUpNR(n))
							for i := range pb.d {
								pb.d[i] = math.NaN()
							}
							putPackBuf(pb)
							return run(d)
						}
						emit(c)
					}
				}
			}
		}
	})
}

// TestPackTransBLayout checks the panel layout itself: element (p, j) of B
// lands at panel j/8, row p, lane j%8, and a ragged last panel's unused
// lanes are zeroed whatever the buffer held.
func TestPackTransBLayout(t *testing.T) {
	g := kerneltest.NewGen(61, nil)
	for _, n := range []int{1, 7, 8, 9, 16, 27} {
		for _, k := range []int{1, 5, 27} {
			bt := g.Normal(n * k)
			dst := make([]float64, k*roundUpNR(n))
			for i := range dst {
				dst[i] = math.NaN()
			}
			packTransB(dst, bt, n, k)
			for j := 0; j < roundUpNR(n); j++ {
				for p := 0; p < k; p++ {
					want := 0.0
					if j < n {
						want = bt[j*k+p]
					}
					if got := dst[j/gemmNR*gemmNR*k+p*gemmNR+j%gemmNR]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d k=%d: packed (%d,%d) = %v, want %v", n, k, p, j, got, want)
					}
				}
			}
		}
	}
}

// TestBlockedGEMMAllocFree checks the steady-state allocation contract at the
// tracked bench shapes: pack buffers come from the pool and grow only, so a
// warmed-up multiply performs zero allocations. GC is disabled around the
// measurement so the sync.Pool cannot be drained mid-run, and the compute
// pool is pinned to one worker: its fan-out allocates task closures on a
// multi-CPU host, which is not the kernels' contract.
func TestBlockedGEMMAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	g := kerneltest.NewGen(43, nil)
	const m, k, n = 256, 128, 64
	if m*k*n < gemmMinVolume {
		t.Fatalf("bench shape below gemmMinVolume=%d", gemmMinVolume)
	}
	out := make([]float64, m*n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ForEachKernelISA(func(tier string) {
		t.Run(tier, func(t *testing.T) {
			for _, layout := range gemmLayouts {
				a, b := gemmOperands(g, m, k, n)
				f := func() { gemmKernels[layout].dispatch(out, a, b, m, k, n) }
				f() // warm the pack-buffer pool
				if avg := testing.AllocsPerRun(20, f); avg != 0 {
					t.Errorf("%s: %v allocs/op in steady state, want 0", layout, avg)
				}
			}
		})
	})
}

// FuzzBlockedGEMM fuzzes the shape dispatch: arbitrary (m, k, n, layout,
// seed) must produce bit-identical results between the blocked path and the
// naive reference, including shapes that straddle the volume threshold and
// leave ragged panels everywhere.
func FuzzBlockedGEMM(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(4), uint8(4), uint8(4), uint8(1), int64(2))
	f.Add(uint8(5), uint8(3), uint8(9), uint8(2), int64(3))
	f.Add(uint8(47), uint8(31), uint8(33), uint8(0), int64(4))
	// MatMulTransB with a ragged last panel: n below one panel, one past a
	// panel, and ragged rows on top.
	f.Add(uint8(7), uint8(26), uint8(3), uint8(2), int64(5))
	f.Add(uint8(3), uint8(47), uint8(8), uint8(2), int64(6))
	f.Add(uint8(6), uint8(0), uint8(35), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, mu, ku, nu, lu uint8, seed int64) {
		m, k, n := int(mu)%48+1, int(ku)%48+1, int(nu)%48+1
		layout := gemmLayouts[int(lu)%len(gemmLayouts)]
		restoreGEMM(t)
		gemmMinVolume = 1
		g := kerneltest.NewGen(seed, kerneltest.HardwareNaN)
		a, b := gemmOperands(g, m, k, n)
		kt.Check(t, gemmCase(g, "fuzz", m, k, n, layout, a, b))
	})
}
