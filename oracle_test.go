package dinar

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/service"
)

// stateDigest is the SHA-256 of a state vector's float64 bits.
func stateDigest(state []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range state {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// tcpFinalState runs cfg's federation through the product path — one
// NewMiddlewareServer and cfg.Clients RunMiddlewareClient sessions over
// loopback TCP — and returns the server's final global state.
func tcpFinalState(t *testing.T, cfg Config, streaming bool) []float64 {
	t.Helper()
	srv, err := NewMiddlewareServer(ServerOptions{Addr: "127.0.0.1:0", Config: cfg, Streaming: streaming})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientErrs := make(chan error, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		go func(id int) {
			_, err := RunMiddlewareClient(ctx, ClientOptions{Addr: srv.Addr(), Config: cfg, ClientID: id, MaxRetries: -1})
			if err != nil {
				cancel() // unblock the server and the other clients
			}
			clientErrs <- err
		}(i)
	}
	final, serveErr := srv.Serve(ctx)
	for i := 0; i < cfg.Clients; i++ {
		if err := <-clientErrs; err != nil {
			t.Errorf("client: %v", err)
		}
	}
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	return final
}

// serviceFinalState runs cfg's federation as a job of the multi-tenant
// service: service.New with JobBuilder on a loopback listener, the job
// created from cfg's settings, cfg.Clients RunMiddlewareClient sessions
// routed to it by name. It returns the final global state the clients
// received (they must all agree) and the job's dinar_fl_agg_update_bytes_peak
// sample, which tells the streamed fold from the materialized cohort.
func serviceFinalState(t *testing.T, cfg Config, streaming bool) ([]float64, string) {
	t.Helper()
	svc, err := service.New(service.Options{Addr: "127.0.0.1:0", StateDir: t.TempDir(), Builder: JobBuilder()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const job = "oracle"
	if _, err := svc.CreateJob(service.JobSpec{
		Name: job, Dataset: cfg.Dataset, Defense: cfg.Defense, Clients: cfg.Clients,
		Rounds: cfg.Rounds, Seed: cfg.Seed, Records: cfg.Records, Streaming: streaming,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	finals := make([][]float64, cfg.Clients)
	clientErrs := make(chan error, cfg.Clients)
	for i := range finals {
		go func(id int) {
			res, err := RunMiddlewareClient(ctx, ClientOptions{Addr: svc.Addr().String(), Config: cfg, ClientID: id, MaxRetries: -1, Job: job})
			if err != nil {
				cancel()
			} else {
				finals[id] = res.FinalGlobalState
			}
			clientErrs <- err
		}(i)
	}
	for range finals {
		if err := <-clientErrs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	for id, final := range finals[1:] {
		if stateDigest(final) != stateDigest(finals[0]) {
			t.Fatalf("clients 0 and %d ended on different global states", id+1)
		}
	}
	var metrics bytes.Buffer
	if err := svc.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	sample := fmt.Sprintf("dinar_fl_agg_update_bytes_peak{job=%q} ", job)
	for _, line := range strings.Split(metrics.String(), "\n") {
		if peak, ok := strings.CutPrefix(line, sample); ok {
			return finals[0], peak
		}
	}
	t.Fatalf("no %s sample in the service's metrics", sample)
	return nil, ""
}

// TestSystemMatchesTCP holds the networked paths to the reference oracle: for
// every defense, over seeds and both collection modes, the federation that
// NewMiddlewareServer and RunMiddlewareClient run over a socket, and the same
// federation run as a service job built by JobBuilder, end on the final
// global state New + Train compute in process, bit for bit. All three take
// their data, models, clients and seed streams from the one assembly
// (fl.Config); what differs is everything else — codec, sessions, arrival
// order, the streamed fold, one defense instance per process, the service's
// front door. The two modes end on the same bits, so the job's peak
// aggregation bytes show that it honoured Streaming.
func TestSystemMatchesTCP(t *testing.T) {
	names := defense.ExtendedNames
	if testing.Short() {
		names = []string{"none", "dinar"}
	}
	for _, name := range names {
		for _, seed := range []int64{3, 9} {
			cfg := Config{
				Dataset: "purchase100", Defense: name, Records: 300,
				Clients: 3, Rounds: 3, LocalEpochs: 1, Seed: seed,
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Train(context.Background()); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			want := stateDigest(sys.sys.Server.GlobalState())
			peaks := map[bool]string{}
			for _, streaming := range []bool{false, true} {
				if got := stateDigest(tcpFinalState(t, cfg, streaming)); got != want {
					t.Errorf("%s seed %d streaming=%v: TCP ended on %s, fl.System on %s", name, seed, streaming, got, want)
				}
				final, peak := serviceFinalState(t, cfg, streaming)
				if got := stateDigest(final); got != want {
					t.Errorf("%s seed %d streaming=%v: service job ended on %s, fl.System on %s", name, seed, streaming, got, want)
				}
				peaks[streaming] = peak
			}
			def, err := defense.New(name, seed, cfg.Clients)
			if err != nil {
				t.Fatal(err)
			}
			if fl.StreamingOf(def) != nil && peaks[false] == peaks[true] {
				t.Errorf("%s seed %d: the job held %s aggregation bytes at peak with and without Streaming", name, seed, peaks[true])
			}
		}
	}
}

// TestLayerVoteProbesClientShards: the §4.1 vote probes the shards the
// clients hold in the federation itself. Under a Dirichlet partition those
// are the Dirichlet shards, derived here by hand from the documented seed
// streams; the vote used to probe IID shards whatever DirichletAlpha said.
func TestLayerVoteProbesClientShards(t *testing.T) {
	cfg := Config{Dataset: "purchase100", Records: 300, Clients: 3, DirichletAlpha: 0.8, Seed: 5}
	probes, nonMembers, err := voteProbes(cfg.flConfig())
	if err != nil {
		t.Fatal(err)
	}

	spec, err := data.Lookup(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	spec.Records = cfg.Records
	ds, err := data.Generate(spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	split := data.NewFLSplit(ds, rng)
	want, err := data.PartitionDirichlet(split.Train, cfg.Clients, cfg.DirichletAlpha, rng)
	if err != nil {
		t.Fatal(err)
	}

	if len(probes) != cfg.Clients {
		t.Fatalf("%d probes for %d clients", len(probes), cfg.Clients)
	}
	for i, p := range probes {
		if !reflect.DeepEqual(p.Data.Y, want[i].Y) || !reflect.DeepEqual(p.Data.X.Data(), want[i].X.Data()) {
			t.Errorf("probe %d trains on %d records that are not client %d's Dirichlet shard (%d records)",
				i, p.Data.Len(), i, want[i].Len())
		}
	}
	if !reflect.DeepEqual(nonMembers.Y, split.Test.Y) {
		t.Error("the vote's non-members are not the federation's test pool")
	}
}
