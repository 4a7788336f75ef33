// Audit: the complete DINAR initialization story (§3 + §4.1) on one screen.
//
//  1. Train an undefended federation and measure each layer's membership
//     leakage (the Jensen–Shannon generalization gap of §3) — the evidence
//     behind the paper's Figure 1.
//  2. Have every client run the same measurement locally and vote; reach the
//     Byzantine-tolerant consensus of §4.1 on the layer DINAR must protect.
//  3. Verify the choice: attack the unprotected uploads, then attack uploads
//     with only the agreed layer obfuscated.
//
// Run with: go run ./examples/audit
package main

import (
	"context"
	"fmt"
	"log"

	dinar "repro"
	"repro/internal/attack"
	"repro/internal/experiment"
	"repro/internal/plot"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	o := experiment.DefaultOptions()
	o.Records = 1000
	o.Rounds = 6
	o.Seed = 5

	fmt.Println("Step 1 - layer-leakage analysis (§3) on an undefended federation")
	fig1, err := experiment.RunSweep(ctx, "fig1", o, experiment.Axes{Datasets: []string{"purchase100"}})
	if err != nil {
		return err
	}
	fmt.Print(plot.Series("  per-layer JS divergence:", "purchase100", fig1.Series(experiment.MetricJS)))
	fmt.Println()

	fmt.Println("Step 2 - clients vote; Byzantine-tolerant consensus (§4.1)")
	layer, err := dinar.ChoosePrivateLayer(ctx, dinar.Config{
		Dataset:   "purchase100",
		Clients:   5,
		Records:   1000,
		BatchSize: 32,
		Seed:      5,
	}, []int{4}) // client 4 lies
	if err != nil {
		return err
	}
	fmt.Printf("  agreed private layer: %d\n\n", layer)

	fmt.Println("Step 3 - verify: attack uploads without and with that layer obfuscated")
	cfg, undefended, err := o.Federation("purchase100", "none")
	if err != nil {
		return err
	}
	runFL, err := experiment.RunFL(ctx, cfg, undefended)
	if err != nil {
		return err
	}
	atk := attack.NewLossAttack()
	before, err := experiment.LocalAUC(runFL, atk)
	if err != nil {
		return err
	}
	// Obfuscate exactly the agreed layer in every final upload and re-attack.
	after, err := experiment.ObfuscatedLocalAUC(runFL, atk, layer, o.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("  attack AUC on raw uploads:        %.1f%%\n", before*100)
	fmt.Printf("  attack AUC with layer %d obfuscated: %.1f%% (optimal: 50%%)\n", layer, after*100)
	return nil
}
