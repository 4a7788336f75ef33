package fl

import (
	"math"
	"testing"
)

func TestFedAvgWeighted(t *testing.T) {
	updates := []*Update{
		{ClientID: 0, State: []float64{1, 2}, NumSamples: 1},
		{ClientID: 1, State: []float64{4, 8}, NumSamples: 3},
	}
	got, err := FedAvg(updates)
	if err != nil {
		t.Fatal(err)
	}
	// (1*1 + 4*3)/4 = 3.25, (2*1 + 8*3)/4 = 6.5
	if math.Abs(got[0]-3.25) > 1e-12 || math.Abs(got[1]-6.5) > 1e-12 {
		t.Fatalf("FedAvg = %v", got)
	}
}

func TestFedAvgZeroWeightsFallsBackToMean(t *testing.T) {
	updates := []*Update{
		{ClientID: 0, State: []float64{2}, NumSamples: 0},
		{ClientID: 1, State: []float64{4}, NumSamples: 0},
	}
	got, err := FedAvg(updates)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("FedAvg fallback = %v", got)
	}
}

func TestFedAvgErrors(t *testing.T) {
	if _, err := FedAvg(nil); err == nil {
		t.Fatal("FedAvg accepted zero updates")
	}
	updates := []*Update{
		{ClientID: 0, State: []float64{1, 2}, NumSamples: 1},
		{ClientID: 1, State: []float64{1}, NumSamples: 1},
	}
	if _, err := FedAvg(updates); err == nil {
		t.Fatal("FedAvg accepted mismatched updates")
	}
}

func TestMaskedSum(t *testing.T) {
	// Clients pre-scale by sample counts: 2*[1,1] and 3*[3,5].
	updates := []*Update{
		{ClientID: 0, State: []float64{2, 2}, NumSamples: 2},
		{ClientID: 1, State: []float64{9, 15}, NumSamples: 3},
	}
	got, err := MaskedSum(updates)
	if err != nil {
		t.Fatal(err)
	}
	// (2+9)/5 = 2.2, (2+15)/5 = 3.4 — the weighted average of [1,1] and [3,5].
	if math.Abs(got[0]-2.2) > 1e-12 || math.Abs(got[1]-3.4) > 1e-12 {
		t.Fatalf("MaskedSum = %v", got)
	}
}

func TestMaskedSumErrors(t *testing.T) {
	if _, err := MaskedSum(nil); err == nil {
		t.Fatal("MaskedSum accepted zero updates")
	}
	if _, err := MaskedSum([]*Update{{State: []float64{1}, NumSamples: 0}}); err == nil {
		t.Fatal("MaskedSum accepted zero total samples")
	}
	updates := []*Update{
		{ClientID: 0, State: []float64{1, 2}, NumSamples: 1},
		{ClientID: 1, State: []float64{1}, NumSamples: 1},
	}
	if _, err := MaskedSum(updates); err == nil {
		t.Fatal("MaskedSum accepted mismatched updates")
	}
}

// TestOptimizerFor: the optimizer is part of DINAR (Algorithm 1's adaptive
// gradient descent) and of DP-FedSAM; every baseline trains with SGD.
func TestOptimizerFor(t *testing.T) {
	for name, want := range map[string]string{
		"dinar": "adagrad", "dinar+robust": "adagrad", "dpfedsam": "sam",
		"none": "sgd", "ldp": "sgd", "cdp": "sgd", "wdp": "sgd", "gc": "sgd", "sa": "sgd",
	} {
		if got := OptimizerFor(name); got != want {
			t.Errorf("OptimizerFor(%q) = %q, want %q", name, got, want)
		}
	}
	if !AdaptiveOptimizer(OptimizerFor("dinar")) || AdaptiveOptimizer("sam") || AdaptiveOptimizer("sgd") {
		t.Error("adagrad takes the adaptive learning rate; sam and sgd take SGD's")
	}
}
