package tensor

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// restorePool resets compute-pool configuration mutated by a test.
func restorePool(t *testing.T) {
	t.Helper()
	prevW, prevM := parallel.Workers(), parallel.MinWork()
	t.Cleanup(func() {
		parallel.SetWorkers(prevW)
		parallel.SetMinWork(prevM)
	})
}

// TestMatMulKernelsPoolParallelBitIdentical is the property test for the
// pool migration: each matmul kernel must produce bit-identical output with
// the pool sized 1 (serial) and sized past the chunk count, across odd
// shapes — fewer rows than a grain, rows == workers, prime rows.
func TestMatMulKernelsPoolParallelBitIdentical(t *testing.T) {
	restorePool(t)
	parallel.SetMinWork(64) // force parallel paths on small shapes
	shapes := []struct{ m, k, n int }{
		{1, 5, 4},    // single row: always one chunk
		{3, 200, 1},  // m < grain for the n=1 column case
		{4, 9, 8},    // m == workers
		{7, 11, 13},  // all prime
		{31, 17, 29}, // prime, larger than workers
		{64, 33, 12}, // even split
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		a := Randn(rng, 0, 1, s.m, s.k)
		b := Randn(rng, 0, 1, s.k, s.n)
		bt := Randn(rng, 0, 1, s.n, s.k)
		at := Randn(rng, 0, 1, s.k, s.m)

		type kernel struct {
			name string
			run  func(out *Tensor) error
		}
		kernels := []kernel{
			{"matmul", func(out *Tensor) error { return MatMulInto(out, a, b) }},
			{"transb", func(out *Tensor) error { return MatMulTransBInto(out, a, bt) }},
			{"transa", func(out *Tensor) error { return MatMulTransAInto(out, at, b) }},
		}
		for _, kn := range kernels {
			parallel.SetWorkers(1)
			want := New(s.m, s.n)
			if err := kn.run(want); err != nil {
				t.Fatalf("%s %dx%dx%d serial: %v", kn.name, s.m, s.k, s.n, err)
			}
			for _, workers := range []int{2, 4, 7} {
				parallel.SetWorkers(workers)
				got := New(s.m, s.n)
				for i := range got.Data() {
					got.Data()[i] = 99 // stale contents must be fully overwritten
				}
				if err := kn.run(got); err != nil {
					t.Fatalf("%s %dx%dx%d workers=%d: %v", kn.name, s.m, s.k, s.n, workers, err)
				}
				for i := range want.Data() {
					if got.Data()[i] != want.Data()[i] {
						t.Fatalf("%s %dx%dx%d workers=%d: out[%d] = %v, serial %v",
							kn.name, s.m, s.k, s.n, workers, i, got.Data()[i], want.Data()[i])
					}
				}
			}
		}
	}
}
