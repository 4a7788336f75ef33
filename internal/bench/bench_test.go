package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestReadFileRefusesOtherVersions: a file of another layout — version 1
// carried no schema_version and one snapshot-level gomaxprocs — is refused
// with an error that names both versions, by ReadFile and by every writer
// that goes through it, and is left as it was.
func TestReadFileRefusesOtherVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, old := range []string{
		`{"current": {"gomaxprocs": 2, "results": {"matmul": {"ns_per_op": 80, "iterations": 7}}}}`,
		`{"schema_version": 3, "current": {"gomaxprocs": 2, "results": {}}}`,
	} {
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil || !strings.Contains(err.Error(), "schema_version") || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("ReadFile(%s) = %v, want a schema_version error", old, err)
		}
		if err := WriteFile(path, Snapshot{GOMAXPROCS: 1}); err == nil {
			t.Fatalf("WriteFile overwrote %s", old)
		}
		if raw, _ := os.ReadFile(path); string(raw) != old {
			t.Fatalf("refused file changed: %s", raw)
		}
	}
}

// TestUpdateFilePreservesSections checks the read-modify-write cycle keeps
// the scaling section intact while replacing the current snapshot, and the
// current snapshot while replacing the scaling section, and writes the schema
// version.
func TestUpdateFilePreservesSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, Snapshot{
		GOMAXPROCS: 1,
		Results:    map[string]Result{"dense_step": {NsPerOp: 70, GOMAXPROCS: 1, Iterations: MinIterations}},
	}); err != nil {
		t.Fatal(err)
	}
	rep := &ScalingReport{
		HostCPUs:  1,
		CPUCounts: []int{1, 2},
		Results: map[string][]ScalingResult{
			"matmul": {
				{GOMAXPROCS: 1, NsPerOp: 100, Speedup: 1, Efficiency: 1},
				{GOMAXPROCS: 2, NsPerOp: 90, Speedup: 100.0 / 90.0, Efficiency: 100.0 / 180.0},
			},
		},
	}
	if err := WriteScaling(path, rep); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFile(path); err != nil || f.Current.Results["dense_step"].NsPerOp != 70 {
		t.Fatalf("current section lost across WriteScaling: %+v, %v", f.Current, err)
	}
	if err := WriteFile(path, Snapshot{
		GOMAXPROCS: 1,
		Results:    map[string]Result{"matmul": {NsPerOp: 95, GOMAXPROCS: 1, Iterations: MinIterations}},
	}); err != nil {
		t.Fatal(err)
	}
	// A result resting on fewer iterations is an anecdote: neither writer
	// records it.
	thin := Snapshot{GOMAXPROCS: 1, Results: map[string]Result{"matmul": {NsPerOp: 1, Iterations: MinIterations - 1}}}
	for name, write := range map[string]func(string, Snapshot) error{"WriteFile": WriteFile, "MergeResults": MergeResults} {
		if err := write(path, thin); err == nil || !strings.Contains(err.Error(), "at least 3") {
			t.Fatalf("%s recorded a %d-iteration result: %v", name, MinIterations-1, err)
		}
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scaling == nil || len(f.Scaling.Results["matmul"]) != 2 {
		t.Fatal("scaling section lost across WriteFile")
	}
	if got := f.Current.Results["matmul"].NsPerOp; got != 95 {
		t.Fatalf("current ns/op %d, want 95", got)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\"schema_version\": 2") {
		t.Fatal("written file lacks schema_version 2")
	}
}

// TestCheckParallelDeterminism runs the scaling sweep's divergence gate at a
// pool size past the host CPU count; any non-bit-identical parallel kernel
// fails here before it could be benchmarked as correct.
func TestCheckParallelDeterminism(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, workers := range []int{2, 4} {
		if err := CheckParallelDeterminism(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestDefaultCPUCounts checks the sweep settings are sorted, deduplicated,
// and start at 1.
func TestDefaultCPUCounts(t *testing.T) {
	counts := DefaultCPUCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("counts %v must start at 1", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("counts %v not strictly increasing", counts)
		}
	}
}

// runOnlySink keeps TestRunOnlyTopsUpSlowEntry's allocations on the heap.
var runOnlySink []byte

// TestRunOnlyTopsUpSlowEntry: an entry slower than the suite's benchtime is
// measured over MinIterations runs of its body, the first one included, and
// its time and allocations are summed over all of them.
func TestRunOnlyTopsUpSlowEntry(t *testing.T) {
	defer func(s []suiteEntry) { suite = s }(suite)
	const perOp = 120 * time.Millisecond // past the 100 ms benchtime
	runs := 0
	suite = []suiteEntry{{"slow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runs++
			runOnlySink = make([]byte, 1<<20)
			time.Sleep(perOp)
		}
	}}}
	snap, err := RunOnly(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := snap.Results["slow"]
	if runs != MinIterations || r.Iterations != MinIterations {
		t.Fatalf("body ran %d times for %d reported iterations, want %d of each", runs, r.Iterations, MinIterations)
	}
	if r.NsPerOp < int64(perOp) || r.BytesPerOp < 1<<20 || r.AllocsPerOp < 1 {
		t.Fatalf("summed result %+v, want at least %d ns, 1 MiB and 1 alloc per op", r, perOp)
	}
}
