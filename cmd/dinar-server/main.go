// Command dinar-server runs the DINAR FL middleware server over TCP: it
// waits for the configured number of clients, orchestrates the federated
// rounds (applying the server-side part of the chosen defense), and prints
// progress.
//
// Usage:
//
//	dinar-server -addr :7070 -dataset purchase100 -defense dinar -clients 3 -rounds 5
//
// Pair with cmd/dinar-client processes sharing the same -dataset, -defense,
// -clients, -rounds, -seed and -records flags (both binaries declare them
// with dinar.Config.BindFlags). The federation flags bind straight into
// dinar.ServerOptions, the settings a service-mode job maps its spec onto.
//
// Byzantine robustness: -aggregator selects a poisoning-tolerant aggregation
// rule (krum, multi-krum, norm-bound, median, trimmed-mean) with -max-byzantine
// as the assumed attacker count; the update screen (on by default, disable with
// -no-screen) rejects malformed/NaN updates and quarantines offenders for
// -quarantine-rounds rounds, optionally clipping oversized deltas (-clip-norms).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	dinar "repro"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dinar-server:", err)
		os.Exit(1)
	}
}

// settings is everything dinar-server's flags set: the federation's server
// options and the service-mode switches.
type settings struct {
	opts         dinar.ServerOptions
	service      bool
	stateDir     string
	drainTimeout time.Duration
}

// flags declares dinar-server's flags on a new set, bound into s.
func flags(s *settings) *flag.FlagSet {
	fs := flag.NewFlagSet("dinar-server", flag.ContinueOnError)
	o := &s.opts
	fs.StringVar(&o.Addr, "addr", "127.0.0.1:7070", "TCP listen address")
	o.Config.BindFlags(fs)

	fs.IntVar(&o.MinClients, "min-clients", 0, "round quorum; after -round-deadline a round aggregates with this many updates (0 = full cohort)")
	fs.DurationVar(&o.RoundDeadline, "round-deadline", 0, "per-round collection deadline; stragglers past it are evicted (0 = wait forever)")
	fs.StringVar(&o.CheckpointPath, "checkpoint", "", "snapshot file persisted every round; restarting with the same path resumes the federation")

	fs.IntVar(&o.SampleSize, "sample-size", 0, "clients sampled into each round's cohort, deterministic per (seed, round); failed members are replaced from the same draw (0 = every client)")
	fs.Int64Var(&o.SampleSeed, "sample-seed", 0, "cohort-draw seed (0 = checkpoint's seed when resuming, else -seed)")
	fs.IntVar(&o.AsyncStaleness, "async-staleness", 0, "buffer stragglers' updates and fold them into later rounds weighted by age, up to this many rounds old; rounds then never block on stragglers (0 = synchronous)")
	fs.BoolVar(&o.Streaming, "streaming", false, "fold each arriving update into an O(model) accumulator instead of materializing the whole cohort (falls back with a warning when the aggregation rule cannot stream)")

	fs.StringVar(&o.Config.Aggregator, "aggregator", "fedavg", "aggregation rule: fedavg, median, trimmed-mean, krum, multi-krum, norm-bound")
	fs.IntVar(&o.Config.MaxByzantine, "max-byzantine", 0, "assumed number of malicious clients the robust aggregator tolerates")
	fs.BoolVar(&o.NoScreen, "no-screen", false, "disable the Byzantine update screen (shape/NaN validation, rejection, quarantine)")
	fs.BoolVar(&o.ClipNorms, "clip-norms", false, "additionally clip oversized update deltas to a running median-of-norms bound")
	fs.IntVar(&o.QuarantineRounds, "quarantine-rounds", 0, "rounds a poisoning client stays excluded after rejection (0 = default 3, negative disables)")

	fs.BoolVar(&o.Compress, "compress", false, "offer per-frame flate compression to clients")
	fs.StringVar(&o.Quantize, "quantize", "none", "stochastically quantize client uploads: none, int8, or int16 (incompatible with secure-aggregation defenses)")
	fs.Float64Var(&o.TopK, "topk", 0, "sparsify quantized uploads to this top fraction of coordinates by magnitude, in (0,1) (0 = dense; requires -quantize)")
	fs.BoolVar(&o.Delta, "delta", false, "delta-encode global broadcasts against each client's last completed round")
	fs.Int64Var(&o.QuantSeed, "quant-seed", 0, "stochastic-quantizer seed (0 = checkpoint's seed when resuming, else -seed)")

	fs.BoolVar(&o.Pipeline, "pipeline", false, "overlap each round's checkpoint write with the next round's broadcast (the persisted chain stays bit-identical)")

	fs.StringVar(&o.AdminAddr, "admin-addr", "", "HTTP observability listen address serving /metrics, /healthz, and /debug/pprof/ (empty disables; \":0\" for an ephemeral port)")

	fs.BoolVar(&s.service, "service", false, "multi-tenant service mode: host many named federation jobs in one process, managed via the admin API (POST /jobs etc.); the per-federation flags above are ignored")
	fs.StringVar(&s.stateDir, "state-dir", "", "service-mode state directory holding the job manifest and every job's checkpoint chain (required with -service)")

	fs.DurationVar(&s.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget after SIGINT/SIGTERM: the in-flight round may finish within it before the final checkpoint is written (a second signal aborts immediately)")
	return fs
}

func run(args []string) error {
	var s settings
	if err := flags(&s).Parse(args); err != nil {
		return err
	}
	if s.service {
		return runService(s.opts.Addr, s.stateDir, s.opts.AdminAddr, s.drainTimeout)
	}

	s.opts.Logf = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	srv, err := dinar.NewMiddlewareServer(s.opts)
	if err != nil {
		return err
	}
	fmt.Printf("dinar-server: listening on %s (dataset=%s defense=%s clients=%d rounds=%d)\n",
		srv.Addr(), s.opts.Config.Dataset, s.opts.Config.Defense, s.opts.Config.Clients, s.opts.Config.Rounds)
	if a := srv.AdminAddr(); a != "" {
		fmt.Printf("dinar-server: observability on http://%s (/metrics /healthz /debug/pprof/)\n", a)
	}

	// First SIGINT/SIGTERM: drain gracefully (finish the in-flight round
	// within -drain-timeout, checkpoint, notify clients). A second signal
	// aborts the drain.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case <-sigCh:
		case <-ctx.Done():
			return
		}
		fmt.Printf("dinar-server: signal received; draining (up to %s; signal again to abort)\n", s.drainTimeout)
		drainCtx, drainCancel := context.WithTimeout(ctx, s.drainTimeout)
		defer drainCancel()
		go func() {
			select {
			case <-sigCh:
				fmt.Println("dinar-server: second signal; aborting drain")
				cancel()
			case <-drainCtx.Done():
			}
		}()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "dinar-server: drain: %v\n", err)
		}
	}()

	start := time.Now()
	final, err := srv.Serve(ctx)
	if errors.Is(err, dinar.ErrDraining) {
		fmt.Printf("dinar-server: drained after %s; state checkpointed at round %d — restart with the same -checkpoint to resume\n",
			time.Since(start).Round(time.Millisecond), srv.Health().CheckpointRound)
		return nil
	}
	if err != nil {
		return err
	}
	dropped := 0
	for _, r := range srv.Reports() {
		dropped += len(r.Dropped)
	}
	fmt.Printf("dinar-server: federation finished in %s; final global state has %d values (%d client drops across %d rounds)\n",
		time.Since(start).Round(time.Millisecond), len(final), dropped, len(srv.Reports()))
	return nil
}

// runService hosts the multi-tenant control plane: jobs are created and
// managed through the admin API, clients are routed by the job name in
// their Hello, and a SIGTERM drains every job (checkpointing each) so
// the next process generation re-adopts them from -state-dir.
func runService(addr, stateDir, adminAddr string, drainTimeout time.Duration) error {
	if stateDir == "" {
		return errors.New("-service requires -state-dir")
	}
	svc, err := service.New(service.Options{
		Addr:     addr,
		StateDir: stateDir,
		Builder:  dinar.JobBuilder(),
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if adminAddr == "" {
		// The admin API is the only way to create jobs; service mode
		// without it would be inert.
		adminAddr = "127.0.0.1:0"
	}
	admin, err := svc.ServeAdmin(adminAddr)
	if err != nil {
		svc.Close()
		return err
	}
	fmt.Printf("dinar-server: service mode on %s (state dir %s)\n", svc.Addr(), stateDir)
	fmt.Printf("dinar-server: admin API on http://%s (POST /jobs, /metrics, /healthz)\n", admin.Addr())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	<-sigCh
	fmt.Printf("dinar-server: signal received; draining all jobs (up to %s; signal again to abort)\n", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	go func() {
		select {
		case <-sigCh:
			fmt.Println("dinar-server: second signal; aborting drain")
			cancel()
		case <-drainCtx.Done():
		}
	}()
	err = svc.Shutdown(drainCtx)
	admin.Close()
	if err != nil && !errors.Is(err, dinar.ErrDraining) {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("dinar-server: all jobs drained and checkpointed; restart with the same -state-dir to resume")
	return nil
}
