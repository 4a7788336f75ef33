// Command dinar-audit runs the paper's §3 layer-leakage analysis as a
// standalone tool: it trains an undefended FL model on the chosen dataset,
// measures each layer's membership leakage (Jensen–Shannon divergence
// between member and non-member gradients), and prints the per-layer report
// with the recommended obfuscation target — the measurement each DINAR
// client performs before the §4.1 consensus vote.
//
// Usage:
//
//	dinar-audit -dataset purchase100
//	dinar-audit -dataset celeba -records 800 -rounds 6
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dinar-audit:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dinar-audit", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "purchase100", "dataset to audit")
		records = fs.Int("records", 1000, "dataset record count")
		rounds  = fs.Int("rounds", 6, "FL rounds before the audit")
		seed    = fs.Int64("seed", 1, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o := experiment.DefaultOptions()
	o.Seed = *seed
	o.Records = *records
	o.Rounds = *rounds

	fmt.Printf("dinar-audit: training undefended FL model on %q and measuring per-layer leakage...\n", *dataset)
	res, err := experiment.RunSweep(ctx, "fig1", o, experiment.Axes{Datasets: []string{*dataset}})
	if err != nil {
		return err
	}
	divergences := res.Series(experiment.MetricJS)
	most := slices.Index(res.Series(experiment.MetricMostSensitive), 1)
	t := metrics.NewTable("Layer-leakage audit — "+*dataset, "Layer", "JS divergence", "")
	for l, d := range divergences {
		mark := ""
		if l == most {
			mark = "<== most privacy-sensitive: obfuscate this layer"
		}
		t.AddRow(l, d, mark)
	}
	fmt.Println(t.String())
	fmt.Println(plot.Series("leakage profile (low..high per layer):", *dataset, divergences))
	fmt.Printf("recommendation: run DINAR with private layer %d (of %d layers)\n",
		most, len(divergences))
	return nil
}
