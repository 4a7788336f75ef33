package dinar

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestObservabilityEndToEnd is the PR's acceptance scenario: a live
// 3-client federation with -admin-addr enabled answers /healthz with round
// progression, /metrics with the federation's counters, and /debug/pprof/,
// while the per-round reports carry the per-phase timing breakdown.
func TestObservabilityEndToEnd(t *testing.T) {
	cfg := Config{
		Dataset:     "purchase100",
		Defense:     "dinar",
		Clients:     3,
		Rounds:      2,
		LocalEpochs: 1,
		Records:     300,
		BatchSize:   32,
		Seed:        17,
	}
	srv, err := NewMiddlewareServer(ServerOptions{
		Addr:      "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
		Config:    cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	adminAddr := srv.AdminAddr()
	if adminAddr == "" {
		t.Fatal("AdminAddr empty with AdminAddr option set")
	}
	base := "http://" + adminAddr

	getHealth := func() telemetry.Health {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		h, err := telemetry.DecodeHealth(body)
		if err != nil {
			t.Fatalf("decode /healthz %s: %v", body, err)
		}
		return h
	}

	// Before any client registers the federation is waiting at round 0.
	if h := getHealth(); h.Status != "waiting" || h.Round != 0 || h.Rounds != cfg.Rounds ||
		h.NumClients != cfg.Clients || h.CheckpointRound != -1 {
		t.Fatalf("pre-run health = %+v", h)
	}

	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx)
		done <- err
	}()
	results := make(chan error, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		go func(id int) {
			_, err := RunMiddlewareClient(ctx, ClientOptions{
				Addr:     srv.Addr(),
				Config:   cfg,
				ClientID: id,
			})
			results <- err
		}(i)
	}

	// The /healthz snapshot must progress out of "waiting" while the
	// federation runs: poll until registered clients appear and the status
	// advances.
	sawProgress := false
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		h := getHealth()
		if h.Status != "waiting" && h.RegisteredClients > 0 {
			sawProgress = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawProgress {
		t.Error("/healthz never reported a running federation")
	}

	for i := 0; i < cfg.Clients; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Final health: done, at the terminal round.
	if h := getHealth(); h.Status != "done" || h.Round != cfg.Rounds {
		t.Errorf("final health = %+v", h)
	}

	// /metrics carries the federation's counters in Prometheus text format.
	metricsOut := scrapeMetrics(t, base)
	for _, name := range []string{
		"dinar_flnet_rounds_started_total",
		"dinar_flnet_rounds_completed_total",
		"dinar_flnet_live_clients",
		"dinar_wire_tx_bytes_total",
		"dinar_wire_rx_frames_total",
		"dinar_fl_aggregate_seconds_count",
		"dinar_flnet_round_wait_seconds_bucket",
	} {
		if !strings.Contains(metricsOut, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The server counts into its own registry: exactly this federation's
	// rounds, whatever else the test binary ran.
	if want := fmt.Sprintf("dinar_flnet_rounds_started_total %d\n", cfg.Rounds); !strings.Contains(metricsOut, want) {
		t.Errorf("/metrics lacks %q:\n%s", want, metricsOut)
	}

	// pprof answers under /debug/.
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}

	// Every aggregated round reports its per-phase timing.
	reports := srv.Reports()
	if len(reports) != cfg.Rounds {
		t.Fatalf("got %d round reports, want %d", len(reports), cfg.Rounds)
	}
	for _, rep := range reports {
		if rep.Timing.Broadcast <= 0 || rep.Timing.Wait <= 0 || rep.Timing.Aggregate <= 0 {
			t.Errorf("round %d timing incomplete: %+v", rep.Round, rep.Timing)
		}
		if rep.Timing.Wait < rep.Timing.Broadcast {
			t.Errorf("round %d: wait %s < broadcast %s (wait spans the whole collection)",
				rep.Round, rep.Timing.Wait, rep.Timing.Broadcast)
		}
	}
}

// scrapeMetrics GETs base's /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	return string(body)
}

// TestTwoServersOwnTheirMetrics: two middleware servers in one process, a
// federation on the first only. Each admin port reports its own server's
// rounds — the idle one reads zero — beside the process-scoped series.
func TestTwoServersOwnTheirMetrics(t *testing.T) {
	cfg := Config{
		Dataset:     "purchase100",
		Defense:     "none",
		Clients:     2,
		Rounds:      2,
		LocalEpochs: 1,
		Records:     300,
		BatchSize:   32,
		Seed:        23,
	}
	var servers [2]*MiddlewareServer
	for i := range servers {
		srv, err := NewMiddlewareServer(ServerOptions{Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
	}
	busy, idle := servers[0], servers[1]

	ctx := context.Background()
	results := make(chan error, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		go func(id int) {
			_, err := RunMiddlewareClient(ctx, ClientOptions{Addr: busy.Addr(), Config: cfg, ClientID: id})
			results <- err
		}(i)
	}
	if _, err := busy.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Clients; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name   string
		srv    *MiddlewareServer
		rounds int
	}{{"busy", busy, cfg.Rounds}, {"idle", idle, 0}} {
		out := scrapeMetrics(t, "http://"+tc.srv.AdminAddr())
		for _, want := range []string{
			fmt.Sprintf("dinar_flnet_rounds_started_total %d\n", tc.rounds),
			fmt.Sprintf("dinar_fl_rounds_aggregated_total %d\n", tc.rounds),
			"dinar_wire_tx_bytes_total ", // process-scoped: on every admin port
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s server's /metrics lacks %q", tc.name, want)
			}
		}
	}
}
