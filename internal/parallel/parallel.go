// Package parallel is the process-wide bounded compute pool under the
// repository's data-parallel work. Five splits use it, each kept because it
// measurably pays at two workers (times on a 2-vCPU host, GOMAXPROCS=2,
// alternated pairs):
//
//   - the blocked GEMM (internal/tensor): with the pool at 2 workers instead
//     of 1, an FCNN6 training step went 12.0 → 9.2 ms, 5 of 5 pairs;
//   - Conv2D's tile fan-out over batch items and weight-gradient slabs
//     (internal/nn): serializing it made a Conv2D step 0.99 → 1.39 ms and a
//     VGG11 step 9.3 → 11.3 ms, 0 of 7;
//   - Dense's forward bias+activation pass (internal/nn), compute-bound
//     under tanh: serializing it made an FCNN6 client round 28.7 → 30.8 ms,
//     1 of 15;
//   - the naive matmuls (internal/tensor), the only kernels on hosts
//     without AVX2;
//   - fl.System's client loops, one client per range.
//
// The memory-bound layer passes (ReLU, batch-norm, pooling, Dense's
// activation gradient) run on the caller: serializing all of them left
// every hot-path entry inside the split version's interquartile range.
//
// Before this package existed, each kernel independently fanned out to
// GOMAXPROCS goroutines, so N concurrent FL clients scheduled N×GOMAXPROCS
// compute goroutines that thrashed each other. The pool replaces those
// ad-hoc fan-outs with a single token bucket holding Workers()-1 tokens: a
// call to For runs one chunk on the calling goroutine and offloads the rest
// only while tokens are available, falling back to inline execution the
// moment the process-wide compute budget is spent. Nested For calls
// therefore degrade gracefully to serial execution instead of
// oversubscribing the scheduler, and total extra compute goroutines never
// exceed Workers()-1 regardless of how many callers race.
//
// # Determinism
//
// For partitions [0, n) into contiguous ranges whose boundaries depend only
// on (n, grain, Workers()) — never on token availability or execution
// order. Callers that write disjoint outputs per index (every kernel in
// this repository) are therefore bit-identical to their serial
// counterparts: the same fn invocations happen with the same [lo, hi)
// arguments, only their placement (caller vs pooled goroutine) varies.
// Reductions stay bit-identical by reducing along the serial axis inside
// each parallel index (e.g. a GEMM's inner products, parallelized across
// row strips).
//
// # Allocation discipline
//
// For's fn escapes to goroutines, so the closure literal heap-allocates at
// its creation site even when For ends up running serially. Hot paths that
// must stay zero-allocation in steady state guard with Chunks first and
// only build the closure on the parallel path:
//
//	if parallel.Chunks(n, g) <= 1 {
//		kernelRange(0, n, ...)
//		return
//	}
//	parallel.For(n, g, func(lo, hi int) { kernelRange(lo, hi, ...) })
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Pool telemetry: all three instruments are plain atomic operations, so
// the instrumented For keeps its zero-allocation steady state (guarded by
// the alloc tests in internal/nn and internal/telemetry).
var (
	telTokensInUse = telemetry.NewGauge("dinar_pool_tokens_in_use",
		"compute-pool tokens currently held by pooled goroutines")
	telInlineFallback = telemetry.NewCounter("dinar_pool_inline_fallback_total",
		"chunks run inline on the caller because the pool was saturated")
	telChunks = telemetry.NewCounter("dinar_pool_chunks_total",
		"chunks executed by parallel.For (serial calls count as one chunk)")
)

// DefaultMinWork is the default minimum number of scalar operations a chunk
// must amortize before For splits work across the pool. It matches the
// threshold the matmul and im2col kernels used before the pool existed.
const DefaultMinWork = 1 << 16

// state is one immutable pool configuration; SetWorkers swaps the whole
// struct so in-flight For calls keep releasing tokens to the bucket they
// acquired from.
type state struct {
	workers int
	tokens  chan struct{} // capacity workers-1: extra goroutines beyond callers
}

var (
	pool    atomic.Pointer[state]
	minWork atomic.Int64
)

func init() {
	minWork.Store(DefaultMinWork)
	pool.Store(newState(runtime.GOMAXPROCS(0)))
}

func newState(n int) *state {
	if n < 1 {
		n = 1
	}
	return &state{workers: n, tokens: make(chan struct{}, n-1)}
}

// Workers returns the pool size: the maximum number of goroutines
// (including the caller) a single For call will use, and one more than the
// process-wide cap on pooled compute goroutines.
func Workers() int { return pool.Load().workers }

// SetWorkers resizes the pool and returns the previous size, for tests and
// the GOMAXPROCS scaling sweep. n < 1 is clamped to 1 (serial). In-flight
// For calls finish against the configuration they started with.
func SetWorkers(n int) (prev int) {
	prev = pool.Swap(newState(n)).workers
	return prev
}

// MinWork returns the current split threshold used by Grain.
func MinWork() int { return int(minWork.Load()) }

// SetMinWork overrides the split threshold and returns the previous value.
// Tests use small values to exercise parallel paths on small shapes; v < 1
// is clamped to 1.
func SetMinWork(v int) (prev int) {
	if v < 1 {
		v = 1
	}
	return int(minWork.Swap(int64(v)))
}

// Grain returns the minimum chunk length (in items) such that one chunk
// carries at least MinWork scalar operations, given perItem operations per
// item. It is the single replacement for the per-kernel
// threshold/GOMAXPROCS guards: For(n, Grain(perItem), fn) stays serial
// exactly when n*perItem falls below the threshold or the pool is sized 1.
func Grain(perItem int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := (MinWork() + perItem - 1) / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// Chunks returns the number of ranges For(n, grain, fn) will invoke fn
// with: ceil(n/grain) capped at Workers(), at least 1 for n > 0, and 0 for
// n <= 0. Hot paths call it to take an allocation-free serial path before
// building the parallel closure.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	c := (n + grain - 1) / grain
	if w := Workers(); c > w {
		c = w
	}
	return c
}

// For partitions [0, n) into Chunks(n, grain) contiguous ranges and invokes
// fn(lo, hi) exactly once per range, returning when all invocations have
// completed. Range boundaries are a pure function of (n, grain, Workers());
// token availability only decides whether a range runs on a pooled
// goroutine or inline on the caller, so callers writing disjoint outputs
// per index are bit-identical to a serial loop. fn must not block on other
// fn invocations of the same For call (ranges may run sequentially on the
// caller when the pool is saturated).
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := pool.Load()
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if chunks > p.workers {
		chunks = p.workers
	}
	if chunks <= 1 {
		telChunks.Inc()
		fn(0, n)
		return
	}
	telChunks.Add(int64(chunks))
	per := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi >= n {
			// The caller always works the final range itself.
			fn(lo, n)
			break
		}
		select {
		case p.tokens <- struct{}{}:
			telTokensInUse.Add(1)
			wg.Add(1)
			go func(lo, hi int) {
				defer func() {
					<-p.tokens
					telTokensInUse.Add(-1)
					wg.Done()
				}()
				fn(lo, hi)
			}(lo, hi)
		default:
			// Pool saturated (e.g. by other concurrent clients): run the
			// range inline instead of adding a runnable goroutine.
			telInlineFallback.Inc()
			fn(lo, hi)
		}
	}
	wg.Wait()
}
