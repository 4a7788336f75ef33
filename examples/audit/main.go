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
	"math/rand"

	dinar "repro"
	"repro/internal/attack"
	"repro/internal/core"
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
	fig1, err := experiment.Fig1(ctx, o, "purchase100")
	if err != nil {
		return err
	}
	series := fig1.Series[0]
	fmt.Print(plot.Series("  per-layer JS divergence:", map[string][]float64{
		"purchase100": series.Divergences,
	}))
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
	spec := runFL.Sys.Spec()
	sum := 0.0
	for _, u := range runFL.Updates {
		state := append([]float64(nil), u.State...)
		m, err := experiment.ModelFromState(spec, state, 42)
		if err != nil {
			return err
		}
		sp := m.Spans()[layer]
		if err := core.Obfuscate(state, sp, core.ObfuscateGaussian, rand.New(rand.NewSource(int64(u.ClientID)))); err != nil {
			return err
		}
		m2, err := experiment.ModelFromState(spec, state, 43)
		if err != nil {
			return err
		}
		auc, err := atk.AUC(m2, runFL.Sys.Shards[u.ClientID], runFL.Sys.Split.Test)
		if err != nil {
			return err
		}
		sum += auc
	}
	after := sum / float64(len(runFL.Updates))
	fmt.Printf("  attack AUC on raw uploads:        %.1f%%\n", before*100)
	fmt.Printf("  attack AUC with layer %d obfuscated: %.1f%% (optimal: 50%%)\n", layer, after*100)
	return nil
}
