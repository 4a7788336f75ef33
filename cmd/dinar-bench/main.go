// Command dinar-bench regenerates the paper's evaluation artifacts: every
// table and figure of §5 maps to an experiment ID.
//
// Usage:
//
//	dinar-bench -exp fig6                # one experiment at full scale
//	dinar-bench -exp fig6 -quick         # reduced smoke scale
//	dinar-bench -exp all                 # everything (long)
//	dinar-bench -list                    # list experiment IDs
//	dinar-bench -json BENCH_hotpath.json # run the hot-path benchmark suite
//	dinar-bench -scaling -json BENCH_hotpath.json
//	                                     # GOMAXPROCS sweep: ns/op, speedup,
//	                                     # and efficiency per CPU count, with
//	                                     # a serial-vs-parallel bit-identity
//	                                     # gate before any timing
//	dinar-bench -pair HEAD~1             # perf gate: ten alternated pairs of
//	                                     # HEAD~1 and the working tree, exit
//	                                     # non-zero on a regression
//
// The rows printed correspond to the bars/curves/cells of the paper's
// artifact; EXPERIMENTS.md records paper-vs-measured values. Beyond the
// paper, "ablation-obf"/"ablation-robust" sweep design choices and
// "byzantine" runs the poisoning-attack × robust-aggregator matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dinar-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dinar-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "experiment ID (or 'all')")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		quick    = fs.Bool("quick", false, "reduced smoke-scale configuration")
		seed     = fs.Int64("seed", 1, "experiment seed")
		records  = fs.Int("records", 0, "override dataset record count")
		rounds   = fs.Int("rounds", 0, "override FL rounds")
		clients  = fs.Int("clients", 0, "override FL client count")
		jsonPath = fs.String("json", "", "run the hot-path benchmark suite and write results to this JSON file (preserving its scaling section)")
		only     = fs.String("only", "", "comma-separated benchmark names to run instead of the whole suite; with -json, named entries are merged into the file and the rest preserved")
		scaling  = fs.Bool("scaling", false, "sweep the suite over GOMAXPROCS settings, verify parallel paths stay bit-identical to serial, and record speedup/efficiency (use with -json)")
		cpus     = fs.String("cpus", "", "comma-separated GOMAXPROCS settings for -scaling (default 1,2,4,NumCPU)")
		pair     = fs.String("pair", "", "perf gate: alternate this git revision and the working tree for ten pairs of runs and exit non-zero on a regression")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	names := strings.Fields(strings.ReplaceAll(*only, ",", " "))
	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *pair != "" {
		return bench.RunPair(ctx, *pair, names, os.Stdout)
	}
	if *scaling {
		counts, err := parseCPUs(*cpus)
		if err != nil {
			return err
		}
		fmt.Println("running GOMAXPROCS scaling sweep...")
		rep, err := bench.RunScaling(counts, func(format string, a ...any) {
			fmt.Printf(format, a...)
		})
		if err != nil {
			return err
		}
		if rep.Note != "" {
			fmt.Println("note:", rep.Note)
		}
		fmt.Println()
		fmt.Print(rep.MarkdownTable())
		if *jsonPath != "" {
			if err := bench.WriteScaling(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote scaling section to %s\n", *jsonPath)
		}
		return nil
	}
	if *jsonPath != "" || *only != "" {
		if len(names) > 0 {
			fmt.Printf("running hot-path benchmarks: %s\n", strings.Join(names, ", "))
		} else {
			fmt.Println("running hot-path benchmark suite...")
		}
		snap, err := bench.RunOnly(names, func(format string, a ...any) {
			fmt.Printf(format, a...)
		})
		if err != nil {
			return err
		}
		if *jsonPath == "" {
			return nil
		}
		if len(names) > 0 {
			err = bench.MergeResults(*jsonPath, snap)
		} else {
			err = bench.WriteFile(*jsonPath, snap)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (try -list)")
	}

	o := experiment.DefaultOptions()
	if *quick {
		o = experiment.QuickOptions()
	}
	o.Seed = *seed
	if *records > 0 {
		o.Records = *records
	}
	if *rounds > 0 {
		o.Rounds = *rounds
	}
	if *clients > 0 {
		o.Clients = *clients
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiment.Run(ctx, id, o)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tbl.String())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseCPUs parses the -cpus flag ("1,2,4") into CPU counts; empty means the
// default sweep.
func parseCPUs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -cpus entry %q (want positive integers, e.g. 1,2,4)", p)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
