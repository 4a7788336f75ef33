// Package kerneltest is the differential harness that holds every SIMD tier
// of a kernel to its reference, bit for bit. A kernel's test is a table row:
// a generator of cases, each with a reference loop and a kernel entry point.
// The harness runs every case on every tier at every pool size, with a guard
// zone past each destination, and compares the outputs' bits, the count the
// vector kernel reports covering and whether the run panicked.
//
// It imports nothing of this module, so the in-package tests of tensor can
// use it without an import cycle: the module hands it its tier loop and its
// compute pool's setters as function values (Env).
package kerneltest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// widest names the tier whose vector kernels report coverage: Case.Cover
// and Case.Panics are asserted there, and below it the entry points must
// leave everything to the scalar loop.
const widest = "avx512"

// Payloads are quiet and signalling NaNs of both signs with distinct
// payloads (so a NaN + NaN shows whose payload an operation keeps), ±Inf, ±0
// and subnormals: for kernels that move, select or combine values in a fixed
// operand order.
var Payloads = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff4000000000123), math.Float64frombits(0xfff0000000000777),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff),
}

// HardwareNaN holds ±0, ±Inf and the one NaN the hardware generates (the one
// 0·Inf makes), for rows whose values pass through a GEMM or a Go reduction:
// which of two NaN payloads those keep depends on an operand order the GEMM
// or the compiler chose, so every planted NaN must have the same bits.
var HardwareNaN = []float64{math.Copysign(0, -1), 0, math.Float64frombits(0xfff8 << 48), math.Inf(1), math.Inf(-1)}

// guardZone is what the harness puts past each destination's end before a
// kernel runs: one AVX-512 vector's worth, what a store without its tail
// mask reaches, of a NaN payload no special has.
var guardZone = func(g float64) []float64 { return []float64{g, g, g, g, g, g, g, g} }(math.Float64frombits(0x7ff80000deadbeef))

// FirstDiff returns the first index at which a and b hold different bit
// patterns (the shorter length when one is a prefix of the other), or -1.
func FirstDiff(a, b []float64) int {
	for i := range min(len(a), len(b)) {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// Lengths returns 0 to n, then more: the lengths a row runs at.
func Lengths(n int, more ...int) []int {
	l := make([]int, n+1)
	for i := range l {
		l[i] = i
	}
	return append(l, more...)
}

// Gen draws a row's values from a seeded source, so every tier sees the
// same cases.
type Gen struct {
	*rand.Rand
	specials []float64
}

// NewGen returns a Gen seeded with seed that plants the given specials.
func NewGen(seed int64, specials []float64) *Gen {
	return &Gen{rand.New(rand.NewSource(seed)), specials}
}

// Special returns one of the Gen's specials.
func (g *Gen) Special() float64 { return g.specials[g.Intn(len(g.specials))] }

// Plant replaces about one in every elements of v with a special and returns v.
func (g *Gen) Plant(v []float64, every int) []float64 {
	for i := range v {
		if g.Intn(every) == 0 {
			v[i] = g.Special()
		}
	}
	return v
}

// Normal returns n standard normal values.
func (g *Gen) Normal(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.NormFloat64()
	}
	return v
}

// Values returns n standard normal values, about one in four a special.
func (g *Gen) Values(n int) []float64 { return g.Plant(g.Normal(n), 4) }

// A Case is one input of a row.
type Case struct {
	Name string
	// Dst holds each destination's stale contents. The reference and every
	// kernel run write fresh copies; a kernel's are followed by a guard zone
	// that must survive.
	Dst [][]float64
	// Ref writes the reference results into dst and returns the outputs to
	// compare: dst, and whatever else the computation leaves elsewhere (a
	// layer's gradients). A nil Ref makes the kernel on the first tier, at
	// the first pool size, the reference.
	Ref func(dst [][]float64) [][]float64
	// Run is the kernel entry point at the current tier and pool size. It
	// returns what Ref does and how many elements (items, rows) the vector
	// kernel covered, or -1 where the entry point reports none.
	Run func(dst [][]float64) ([][]float64, int)
	// Cover is the count Run must report on the AVX-512 tier; below it, 0.
	Cover int
	// Panics marks a short-slice case, run on the AVX-512 tier only (below
	// it the entry points leave everything to the scalar loop): Run must
	// panic before writing anything. It needs no Ref.
	Panics bool
	// Rejects lets the reference and Run panic, provided both do, with the
	// same error (any two runtime errors match: bounds checks may trip at
	// different indices). Any other case fails if either panics.
	Rejects bool
}

// Pair is a case with one destination, which ref, the reference loop, and
// run, the kernel entry point, both write; run reports how many elements its
// vector kernel covered.
func Pair(name string, stale []float64, cover int, ref func(dst []float64), run func(dst []float64) int) Case {
	return Case{Name: name, Dst: [][]float64{stale}, Cover: cover,
		Ref: func(d [][]float64) [][]float64 { ref(d[0]); return d },
		Run: func(d [][]float64) ([][]float64, int) { return d, run(d[0]) }}
}

// Prefix is a Pair for a kernel that covers a prefix of whole units
// (blocks, items, rows) and reports how many, as its callers run it: rest is
// the scalar loop from a given unit on, so the reference is rest from 0 and
// the run is rest from where the kernel stopped.
func Prefix(name string, stale []float64, cover int, kernel func(dst []float64) int, rest func(dst []float64, from int)) Case {
	return Pair(name, stale, cover, func(d []float64) { rest(d, 0) }, func(d []float64) int { k := kernel(d); rest(d, k); return k })
}

// Short is a short-slice case: on the AVX-512 tier run must panic before it
// writes dst.
func Short(name string, dst []float64, run func(dst []float64)) Case {
	return Case{Name: name, Dst: [][]float64{dst}, Panics: true,
		Run: func(d [][]float64) ([][]float64, int) { run(d[0]); return d, 0 }}
}

// Env is what the harness needs of the module under test.
type Env struct {
	// Tiers calls f once per kernel tier the host runs, scalar first, with
	// every kernel dispatching to that tier (tensor.ForEachKernelISA).
	Tiers func(f func(tier string))
	// SetWorkers and SetMinWork set the compute pool's size and its minimum
	// work per chunk, returning the previous value (parallel.SetWorkers and
	// parallel.SetMinWork).
	SetWorkers, SetMinWork func(int) int
	// MinWork is the pool's minimum work while the harness runs, low enough
	// that test-sized shapes split.
	MinWork int
	// Pools are the pool sizes every tier runs at; nil means 1 and 3.
	Pools []int
}

// WithPools returns e running at the given pool sizes, the first the
// reference's.
func (e Env) WithPools(pools ...int) Env {
	e.Pools = pools
	return e
}

// Run holds every case cases emits to its reference on every tier, each
// tier a subtest, at every pool size. cases is called once, on the first
// tier, where the references are taken.
func (e Env) Run(t *testing.T, cases func(emit func(Case))) {
	t.Helper()
	e.each(cases, func(tier string, check func() error) {
		t.Run(tier, func(t *testing.T) {
			if err := check(); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// Check holds one case to its reference on every tier at every pool size:
// the body of a kernel family's fuzz target.
func (e Env) Check(t *testing.T, c Case) {
	t.Helper()
	if err := e.verify(func(emit func(Case)) { emit(c) }); err != nil {
		t.Fatal(err)
	}
}

// Bench times f on every tier, each a sub-benchmark named after the tier
// (then name, if any), and reports nanoseconds per unit when per > 0.
func (e Env) Bench(b *testing.B, name string, per int, unit string, f func()) {
	e.Tiers(func(tier string) {
		b.Run(strings.TrimSuffix(tier+"/"+name, "/"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
			if per > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per), "ns/"+unit)
			}
		})
	})
}

// verify is Run without subtests: it returns the first discrepancy.
func (e Env) verify(cases func(emit func(Case))) (err error) {
	e.each(cases, func(_ string, check func() error) {
		if err == nil {
			err = check()
		}
	})
	return err
}

// each collects the cases and takes their references on the first tier,
// then hands do each tier's check of every case at every pool size.
func (e Env) each(cases func(emit func(Case)), do func(tier string, check func() error)) {
	pools := e.Pools
	if pools == nil {
		pools = []int{1, 3}
	}
	workers, minWork := e.SetWorkers(pools[0]), e.SetMinWork(e.MinWork)
	defer func() { e.SetWorkers(workers); e.SetMinWork(minWork) }()
	var cs []Case
	var wants []result
	e.Tiers(func(tier string) {
		if wants == nil {
			cases(func(c Case) { cs = append(cs, c) })
			wants = make([]result, len(cs))
			for i, c := range cs {
				if c.Ref != nil {
					wants[i] = call(c, func(d [][]float64) ([][]float64, int) { return c.Ref(d), -1 })
				} else if !c.Panics {
					wants[i] = call(c, c.Run)
				}
			}
		}
		do(tier, func() error {
			for i, c := range cs {
				for _, p := range pools {
					e.SetWorkers(p)
					if err := compare(tier, c, call(c, c.Run), wants[i]); err != nil {
						return fmt.Errorf("%s, pool %d, %s: %w", tier, p, c.Name, err)
					}
				}
			}
			return nil
		})
	})
}

// result is what one run of a case left: its outputs and destinations, the
// count its kernel reported covering, and what it panicked with.
type result struct {
	out, dst [][]float64
	covered  int
	panicked any
}

// call runs f on guarded copies of c's destinations.
func call(c Case, f func([][]float64) ([][]float64, int)) (r result) {
	r.dst = make([][]float64, len(c.Dst))
	for i, d := range c.Dst {
		r.dst[i] = append(append(make([]float64, 0, len(d)+len(guardZone)), d...), guardZone...)[:len(d)]
	}
	defer func() { r.panicked = recover() }()
	r.out, r.covered = f(r.dst)
	return r
}

// compare holds a kernel run to the reference's.
func compare(tier string, c Case, got, want result) error {
	for i, d := range got.dst {
		if j := FirstDiff(d[len(d):cap(d)], guardZone); j >= 0 {
			return fmt.Errorf("wrote destination %d at %d, past its end", i, len(d)+j)
		}
	}
	if c.Panics {
		if tier != widest {
			return nil
		}
		if got.panicked == nil {
			return fmt.Errorf("did not panic")
		}
		for i, d := range got.dst {
			if j := FirstDiff(d, c.Dst[i]); j >= 0 {
				return fmt.Errorf("wrote destination %d at %d before panicking", i, j)
			}
		}
		return nil
	}
	if got.panicked != nil || want.panicked != nil {
		if !c.Rejects || got.panicked == nil || want.panicked == nil {
			return fmt.Errorf("panicked with %v, the reference with %v", got.panicked, want.panicked)
		}
		if g, w := rejection(got.panicked), rejection(want.panicked); g != w {
			return fmt.Errorf("rejected with %q, the reference with %q", g, w)
		}
		return nil
	}
	if cover := 0; got.covered >= 0 {
		if tier == widest {
			cover = c.Cover
		}
		if got.covered != cover {
			return fmt.Errorf("the kernel covered %d, want %d", got.covered, cover)
		}
	}
	if len(got.out) != len(want.out) {
		return fmt.Errorf("%d outputs, the reference %d", len(got.out), len(want.out))
	}
	for k, w := range want.out {
		g := got.out[k]
		if j := FirstDiff(g, w); j >= len(g) || j >= len(w) {
			return fmt.Errorf("output %d has %d elements, the reference %d", k, len(g), len(w))
		} else if j >= 0 {
			return fmt.Errorf("output %d [%d] = %#x, the reference %#x", k, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
		}
	}
	return nil
}

// rejection is the text of an error a run panicked with, "" for a runtime
// error (an index out of range).
func rejection(p any) string {
	if err, ok := p.(error); ok {
		if _, rt := err.(runtime.Error); !rt {
			return err.Error()
		}
	}
	return ""
}
