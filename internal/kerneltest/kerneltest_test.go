package kerneltest

import (
	"errors"
	"math"
	"testing"
)

// tier and workers are what the fake module below dispatches on.
var (
	tier    string
	workers = 1
)

var fake = Env{
	Tiers: func(f func(string)) {
		for _, tier = range []string{"scalar", "avx2", widest} {
			f(tier)
		}
	},
	SetWorkers: func(n int) int { prev := workers; workers = n; return prev },
	SetMinWork: func(int) int { return 0 },
}

// sum is x + y keeping x's payload when both are NaN, as x86 keeps its
// first source's.
func sum(x, y float64) float64 {
	if x != x {
		return x
	}
	if y != y {
		return y
	}
	return x + y
}

// addRow is dst = a + b at lengths around a vector and past a few: on the
// widest tier the vector kernel takes a prefix and reports it, then the
// scalar loop takes the rest. mutate rewrites what the kernel computed for
// element i, and what it reports covering; with ref false the first tier
// is the reference.
func addRow(mutate func(dst, a, b []float64, i int), covered func(k, n int) int, ref bool) func(emit func(Case)) {
	scalar := func(dst, a, b []float64) {
		for i := range dst {
			dst[i] = sum(a[i], b[i])
		}
	}
	return func(emit func(Case)) {
		g := NewGen(1, Payloads)
		for _, n := range []int{0, 1, 7, 8, 9, 17, 4096} {
			a, b := g.Plant(g.Normal(n), 2), g.Plant(g.Normal(n), 2)
			c := Pair("", g.Values(n), n&^7, func(dst []float64) { scalar(dst, a, b) }, func(dst []float64) int {
				k := 0
				if tier == widest {
					k = n &^ 7
					scalar(dst[:k], a, b)
					for i := range k {
						mutate(dst, a, b, i)
					}
					k = covered(k, n)
				}
				scalar(dst[k:], a[k:], b[k:])
				return k
			})
			if !ref {
				c.Ref = nil
			}
			emit(c)
		}
	}
}

// TestHarnessReportsMutants runs the harness on a correct kernel, which must
// pass with and without a reference, and on planted Go-level mutants, each
// of which it must report.
func TestHarnessReportsMutants(t *testing.T) {
	same := func(k, _ int) int { return k }
	for _, ref := range []bool{true, false} {
		if err := fake.verify(addRow(func([]float64, []float64, []float64, int) {}, same, ref)); err != nil {
			t.Fatalf("a correct kernel (ref %v) failed: %v", ref, err)
		}
	}
	mutants := map[string]func(dst, a, b []float64, i int){
		"writes a lane past dst": func(dst, _, _ []float64, i int) {
			if i == len(dst)-1 {
				dst[:i+2][i+1] = 0
			}
		},
		"returns a NaN with another payload": func(dst, _, _ []float64, i int) {
			if dst[i] != dst[i] {
				dst[i] = math.Float64frombits(0x7ff8000000000002)
			}
		},
		"turns -0 into +0": func(dst, _, _ []float64, i int) {
			if dst[i] == 0 {
				dst[i] = 0
			}
		},
		"adds NaN operands in swapped order": func(dst, a, b []float64, i int) { dst[i] = sum(b[i], a[i]) },
		"depends on the pool size": func(dst, _, _ []float64, i int) {
			if workers > 1 {
				dst[i] = math.Nextafter(dst[i], math.Inf(1))
			}
		},
	}
	for _, ref := range []bool{true, false} {
		for name, m := range mutants {
			if err := fake.verify(addRow(m, same, ref)); err == nil {
				t.Errorf("%s (ref %v): the harness passed it", name, ref)
			}
		}
		// A kernel that claims the tail it skipped leaves the tail stale.
		if err := fake.verify(addRow(func([]float64, []float64, []float64, int) {}, func(_, n int) int { return n }, ref)); err == nil {
			t.Errorf("skips the tail (ref %v): the harness passed it", ref)
		}
	}
	// A kernel that panics on every tier and pool size, its reference too
	// (they share the panicking code) or with none, is reported unless the
	// case expects it to reject its input, and then only if both reject it
	// alike.
	fail := func(err error) func([]float64) { return func([]float64) { panic(err) } }
	bad, other := errors.New("bad input"), errors.New("other input")
	for _, c := range []struct {
		ref, run func([]float64)
		rejects  bool
		pass     bool
	}{
		{fail(bad), fail(bad), false, false},
		{nil, fail(bad), false, false},
		{fail(bad), fail(bad), true, true},
		{func(d []float64) { _ = d[len(d)] }, func(d []float64) { _ = d[len(d)+1] }, true, true},
		{fail(bad), fail(other), true, false},
		{fail(bad), func([]float64) {}, true, false},
	} {
		k := Pair("panics", make([]float64, 8), 0, c.ref, func(d []float64) int { c.run(d); return 0 })
		if k.Rejects = c.rejects; c.ref == nil {
			k.Ref = nil
		}
		if err := fake.verify(func(emit func(Case)) { emit(k) }); (err == nil) != c.pass {
			t.Errorf("panicking kernel (reference %v, rejects %v): the harness gave %v", c.ref != nil, c.rejects, err)
		}
	}
}

// TestHarnessShortSlicePanics holds the Panics contract: a wrapper that
// panics before its kernel writes passes; one that writes first, or does
// not panic, is reported.
func TestHarnessShortSlicePanics(t *testing.T) {
	short := func(writeFirst, panics bool) func(emit func(Case)) {
		return func(emit func(Case)) {
			emit(Short("short", make([]float64, 8), func(dst []float64) {
				if writeFirst {
					dst[0] = 1
				}
				if panics {
					_ = dst[8]
				}
			}))
		}
	}
	if err := fake.verify(short(false, true)); err != nil {
		t.Fatalf("a wrapper that checks first failed: %v", err)
	}
	for _, bad := range [][2]bool{{true, true}, {false, false}} {
		if fake.verify(short(bad[0], bad[1])) == nil {
			t.Errorf("writes first %v, panics %v: the harness passed it", bad[0], bad[1])
		}
	}
}
