package dinar

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestListings(t *testing.T) {
	if len(Defenses()) != 7 {
		t.Fatalf("Defenses = %v", Defenses())
	}
	if len(Datasets()) != 7 {
		t.Fatalf("Datasets = %v", Datasets())
	}
	if len(Experiments()) != 15 {
		t.Fatalf("Experiments = %v", Experiments())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Dataset != "purchase100" || c.Defense != "dinar" || c.Optimizer != "adagrad" {
		t.Fatalf("defaults: %+v", c)
	}
	if c.LearningRate != 0.01 {
		t.Fatalf("dinar default lr = %v", c.LearningRate)
	}
	c = Config{Defense: "ldp"}.withDefaults()
	if c.Optimizer != "sgd" || c.LearningRate != 0.8 {
		t.Fatalf("ldp defaults: %+v", c)
	}
	// Sharpness-aware minimization is part of DP-FedSAM, as Adagrad is of
	// DINAR: the facade trains it the way every experiment does.
	c = Config{Defense: "dpfedsam"}.withDefaults()
	if c.Optimizer != "sam" || c.LearningRate != 0.8 {
		t.Fatalf("dpfedsam defaults: %+v", c)
	}
	// The federation's shape defaults where the assembly lives.
	fc := Config{}.flConfig()
	if fc.Dataset != "purchase100" || fc.Optimizer != "adagrad" || fc.LearningRate != 0.01 ||
		fc.Clients != 5 || fc.Rounds != 10 || fc.LocalEpochs != 5 || fc.BatchSize != 64 || !math.IsInf(fc.DirichletAlpha, 1) {
		t.Fatalf("assembly defaults: %+v", fc)
	}
}

func TestDefaultLearningRate(t *testing.T) {
	if DefaultLearningRate("purchase100", "sgd") != 0.8 {
		t.Fatal("purchase100 sgd rate")
	}
	if DefaultLearningRate("cifar10", "adam") != 0.01 {
		t.Fatal("adaptive rate")
	}
	if DefaultLearningRate("unknown", "sgd") != 0.2 {
		t.Fatal("fallback rate")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Dataset: "nope"}); err == nil {
		t.Fatal("accepted unknown dataset")
	}
	if _, err := New(Config{Defense: "nope"}); err == nil {
		t.Fatal("accepted unknown defense")
	}
}

func TestTrainUtilityPrivacyLifecycle(t *testing.T) {
	sys, err := New(Config{
		Dataset:     "purchase100",
		Defense:     "dinar",
		Clients:     3,
		Rounds:      2,
		LocalEpochs: 1,
		Records:     400,
		BatchSize:   32,
		Seed:        5,
		Parallel:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Utility(); err == nil {
		t.Fatal("Utility before Train should fail")
	}
	ctx := context.Background()
	if _, err := sys.EvaluatePrivacy(ctx); err == nil {
		t.Fatal("EvaluatePrivacy before Train should fail")
	}
	if err := sys.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if sys.Rounds() != 2 {
		t.Fatalf("Rounds = %d", sys.Rounds())
	}
	acc, err := sys.Utility()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	costs := sys.Costs()
	if costs.MeanClientTrain == 0 || costs.MeanServerAgg == 0 {
		t.Fatal("costs not recorded")
	}
}

func TestEvaluatePrivacyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("shadow attack is slow")
	}
	sys, err := New(Config{
		Dataset:     "purchase100",
		Defense:     "none",
		Clients:     3,
		Rounds:      3,
		LocalEpochs: 2,
		Records:     600,
		BatchSize:   32,
		Seed:        5,
		Parallel:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sys.Train(ctx); err != nil {
		t.Fatal(err)
	}
	priv, err := sys.EvaluatePrivacy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if priv.GlobalAUC < 0.5 || priv.GlobalAUC > 1 {
		t.Fatalf("global AUC = %v", priv.GlobalAUC)
	}
	if priv.LocalAUC < 0.5 || priv.LocalAUC > 1 {
		t.Fatalf("local AUC = %v", priv.LocalAUC)
	}
}

func TestRunExperimentTable1(t *testing.T) {
	out, err := RunExperiment(context.Background(), "table1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DINAR") {
		t.Fatalf("missing DINAR in output:\n%s", out)
	}
	if _, err := RunExperiment(context.Background(), "nope", true); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

func TestChoosePrivateLayerConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("local probe training is slow")
	}
	layer, err := ChoosePrivateLayer(context.Background(), Config{
		Dataset:     "purchase100",
		Clients:     5,
		LocalEpochs: 3,
		Records:     1000,
		BatchSize:   32,
		Seed:        5,
	}, []int{4}) // one Byzantine client
	if err != nil {
		t.Fatal(err)
	}
	if layer < 0 || layer >= 6 {
		t.Fatalf("layer = %d", layer)
	}
	// The vote should land in the deep half of the 6-layer FCNN.
	if layer < 3 {
		t.Fatalf("consensus layer %d unexpectedly shallow", layer)
	}
}

func TestMiddlewareOverTCP(t *testing.T) {
	cfg := Config{
		Dataset:     "purchase100",
		Defense:     "dinar",
		Clients:     2,
		Rounds:      2,
		LocalEpochs: 1,
		Records:     300,
		BatchSize:   32,
		Seed:        9,
	}
	if final := tcpFinalState(t, cfg, false); len(final) == 0 {
		t.Fatal("empty final state")
	}
}

func TestMiddlewareClientValidation(t *testing.T) {
	_, err := RunMiddlewareClient(context.Background(), ClientOptions{
		Addr:     "127.0.0.1:1",
		Config:   Config{Clients: 2},
		ClientID: 5,
	})
	if err == nil {
		t.Fatal("accepted out-of-range client id")
	}
}

func TestChoosePrivateLayerValidation(t *testing.T) {
	if _, err := ChoosePrivateLayer(context.Background(), Config{Dataset: "nope"}, nil); err == nil {
		t.Fatal("accepted unknown dataset")
	}
}

func TestNewMiddlewareServerValidation(t *testing.T) {
	if _, err := NewMiddlewareServer(ServerOptions{Addr: "127.0.0.1:0", Config: Config{Dataset: "nope"}}); err == nil {
		t.Fatal("accepted unknown dataset")
	}
	if _, err := NewMiddlewareServer(ServerOptions{Addr: "127.0.0.1:0", Config: Config{Defense: "nope"}}); err == nil {
		t.Fatal("accepted unknown defense")
	}
	if _, err := NewMiddlewareServer(ServerOptions{Addr: ""}); err == nil {
		t.Fatal("accepted an empty listen address")
	}
}
