package fl

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/kerneltest"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// noneDefense is a local identity defense to avoid importing
// internal/defense (which would create an import cycle in tests).
type noneDefense struct{ info ModelInfo }

func (d *noneDefense) Name() string { return "none" }
func (d *noneDefense) Bind(info ModelInfo) error {
	d.info = info
	return nil
}
func (d *noneDefense) OnGlobalModel(_, _ int, global []float64) []float64 {
	return append([]float64(nil), global...)
}
func (d *noneDefense) BeforeUpload(_ int, _ []float64, _ *Update) {}
func (d *noneDefense) Aggregate(_ int, _ []float64, updates []*Update) ([]float64, error) {
	return FedAvg(updates)
}

func smallConfig() Config {
	return Config{
		Dataset:      "purchase100",
		Records:      600,
		Clients:      3,
		Rounds:       2,
		LocalEpochs:  1,
		BatchSize:    32,
		LearningRate: 0.05,
		Optimizer:    "sgd",
		Seed:         1,
	}
}

func TestNewSystemShapes(t *testing.T) {
	sys, err := NewSystem(smallConfig(), &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Clients) != 3 {
		t.Fatalf("clients = %d", len(sys.Clients))
	}
	// Paper split: 600 -> 300 attacker, 240 train, 60 test.
	if sys.Split.Attacker.Len() != 300 || sys.Split.Train.Len() != 240 || sys.Split.Test.Len() != 60 {
		t.Fatalf("split = %d/%d/%d", sys.Split.Attacker.Len(), sys.Split.Train.Len(), sys.Split.Test.Len())
	}
	total := 0
	for _, sh := range sys.Shards {
		total += sh.Len()
	}
	if total != 240 {
		t.Fatalf("shards cover %d", total)
	}
}

func TestNewSystemErrors(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewSystem(cfg, nil); err == nil {
		t.Fatal("accepted nil defense")
	}
	cfg.Dataset = "nope"
	if _, err := NewSystem(cfg, &noneDefense{}); err == nil {
		t.Fatal("accepted unknown dataset")
	}
	cfg = smallConfig()
	cfg.Optimizer = "nope"
	if _, err := NewSystem(cfg, &noneDefense{}); err == nil {
		t.Fatal("accepted unknown optimizer")
	}
}

func TestSystemRunChangesGlobalState(t *testing.T) {
	sys, err := NewSystem(smallConfig(), &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Server.GlobalState()
	updates, err := sys.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 3 {
		t.Fatalf("final round updates = %d", len(updates))
	}
	after := sys.Server.GlobalState()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("global state unchanged after training")
	}
	if sys.Server.Round() != 2 {
		t.Fatalf("rounds = %d", sys.Server.Round())
	}
}

func TestSystemDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		sys, err := NewSystem(smallConfig(), &noneDefense{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sys.Server.GlobalState()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different global states")
		}
	}
}

func TestSystemParallelMatchesSequentialAggregate(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	cfgSeq := smallConfig()
	cfgPar := smallConfig()
	cfgPar.Parallel = true

	runWith := func(cfg Config) []float64 {
		sys, err := NewSystem(cfg, &noneDefense{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sys.Server.GlobalState()
	}
	a, b := runWith(cfgSeq), runWith(cfgPar)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("parallel and sequential training disagree")
		}
	}
}

func TestSystemCancellation(t *testing.T) {
	leakcheck.GuardTest(t, 5*time.Second)
	sys, err := NewSystem(smallConfig(), &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Run(ctx); err == nil {
		t.Fatal("cancelled run should fail")
	}
}

func TestSystemLearns(t *testing.T) {
	cfg := smallConfig()
	cfg.Dataset = "purchase100"
	cfg.Records = 1200
	cfg.Rounds = 6
	cfg.LocalEpochs = 2
	cfg.LearningRate = 0.1
	sys, err := NewSystem(cfg, &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.FinalizeClients(); err != nil {
		t.Fatal(err)
	}
	acc, err := sys.MeanClientAccuracy(sys.Split.Test)
	if err != nil {
		t.Fatal(err)
	}
	// 100 classes, random = 1%. Require clear learning signal.
	if acc < 0.05 {
		t.Fatalf("test accuracy %.3f shows no learning", acc)
	}
	report := sys.Meter.Report()
	if report.MeanClientTrain == 0 {
		t.Fatal("cost meter recorded no client training time")
	}
	if report.MeanServerAgg == 0 {
		t.Fatal("cost meter recorded no aggregation time")
	}
}

func TestSystemDirichletPartition(t *testing.T) {
	cfg := smallConfig()
	cfg.DirichletAlpha = 0.5
	sys, err := NewSystem(cfg, &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	skew := data.SkewMetric(sys.Split.Train, sys.Shards)
	cfg2 := smallConfig()
	sys2, err := NewSystem(cfg2, &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	iidSkew := data.SkewMetric(sys2.Split.Train, sys2.Shards)
	if skew <= iidSkew {
		t.Fatalf("dirichlet skew %v should exceed IID skew %v", skew, iidSkew)
	}
}

func TestClientValidation(t *testing.T) {
	spec, _ := data.Lookup("purchase100")
	ds, _ := data.GenerateN(spec, 20, 1)
	m := model.FCNN6(spec.Features, spec.Classes, rand.New(rand.NewSource(1)))
	opt := optim.NewSGD(0.1, 0)
	rng := rand.New(rand.NewSource(2))
	if _, err := NewClient(0, nil, ds, opt, 8, 1, rng); err == nil {
		t.Fatal("accepted nil model")
	}
	if _, err := NewClient(0, m, ds, opt, 0, 1, rng); err == nil {
		t.Fatal("accepted zero batch size")
	}
	if _, err := NewClient(0, m, ds, opt, 8, 0, rng); err == nil {
		t.Fatal("accepted zero epochs")
	}
	empty := ds.Subset(nil)
	if _, err := NewClient(0, m, empty, opt, 8, 1, rng); err == nil {
		t.Fatal("accepted empty dataset")
	}
	c, err := NewClient(0, m, ds, opt, 8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TrainLocal(); err != nil {
		t.Fatal(err)
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil, &noneDefense{}, nil); err == nil {
		t.Fatal("accepted empty state")
	}
	if _, err := NewServer([]float64{1}, nil, nil); err == nil {
		t.Fatal("accepted nil defense")
	}
	s, err := NewServer([]float64{1, 2}, &noneDefense{}, metrics.NewCostMeter())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Aggregate(nil); err == nil {
		t.Fatal("accepted empty round")
	}
	if err := s.Aggregate([]*Update{{State: []float64{1}}}); err == nil {
		t.Fatal("accepted short update")
	}
	if err := s.Aggregate([]*Update{{State: []float64{3, 4}, NumSamples: 1}}); err != nil {
		t.Fatal(err)
	}
	got := s.GlobalState()
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("state = %v", got)
	}
}

func TestEvaluateModel(t *testing.T) {
	spec, _ := data.Lookup("purchase100")
	ds, _ := data.GenerateN(spec, 40, 3)
	m := model.FCNN6(spec.Features, spec.Classes, rand.New(rand.NewSource(1)))
	acc, meanLoss, err := EvaluateModel(m, ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	if meanLoss <= 0 {
		t.Fatalf("loss = %v", meanLoss)
	}
	losses, err := PerSampleLosses(m, ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 40 {
		t.Fatalf("per-sample losses = %d", len(losses))
	}
}

// TestFullParticipationDefault: the oracle samples nothing — every round
// trains every client, in client order.
func TestFullParticipationDefault(t *testing.T) {
	sys, err := NewSystem(smallConfig(), &noneDefense{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		updates, err := sys.RunRound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(updates) != 3 {
			t.Fatalf("round %d trained %d of 3 clients", r, len(updates))
		}
		for i, u := range updates {
			if u.ClientID != i || u.Round != r {
				t.Fatalf("round %d update %d is client %d's for round %d", r, i, u.ClientID, u.Round)
			}
		}
	}
}

// TestClientRoundMatchesFullBackward replays one client round by hand through
// Model.Backward — the input gradient computed and dropped, as TrainLocal did
// before it switched to Model.BackwardParams — and requires the client's
// upload to carry the same bits, for a plain and for a two-phase optimizer.
func TestClientRoundMatchesFullBackward(t *testing.T) {
	spec, _ := data.Lookup("purchase100")
	ds, err := data.GenerateN(spec, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := model.FCNN6(spec.Features, spec.Classes, rand.New(rand.NewSource(1)))
	global := base.StateVector()
	const batchSize, epochs = 32, 2
	for _, name := range []string{"adagrad", "sam"} {
		c, err := NewClient(0, base.Clone(), ds, optim.New(name, 0.05), batchSize, epochs, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		u, err := c.RunRound(0, global, &noneDefense{})
		if err != nil {
			t.Fatal(err)
		}

		ref, opt, rng := base.Clone(), optim.New(name, 0.05), rand.New(rand.NewSource(3))
		var loss nn.SoftmaxCrossEntropy
		params, grads := ref.Params(), ref.Grads()
		grad := func(x *tensor.Tensor, y []int) {
			res, err := loss.Eval(ref.Forward(x, true), y)
			if err != nil {
				t.Fatal(err)
			}
			ref.Backward(res.Grad)
		}
		for e := 0; e < epochs; e++ {
			if err := ds.Batches(batchSize, rng, func(x *tensor.Tensor, y []int) error {
				grad(x, y)
				if two, ok := opt.(optim.TwoPhase); ok {
					if two.FirstStep(params, grads) {
						grad(x, y)
					}
					two.SecondStep(params, grads)
				} else {
					opt.Step(params, grads)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.StateVector()
		if i := kerneltest.FirstDiff(u.State, want); i >= 0 {
			t.Fatalf("%s: state[%d] = %v through BackwardParams, %v through Backward", name, i, u.State[i], want[i])
		}
	}
}

// TestAssemblySeedStreams derives a federation by hand from the documented
// seed streams (DESIGN.md, "Seed streams") and requires the assembly to yield
// the same shards, the same initial model and a client that trains to the
// same bits, for an IID and a Dirichlet partition. Every golden digest and
// benchmark hash in the repository depends on these offsets staying put.
func TestAssemblySeedStreams(t *testing.T) {
	for _, alpha := range []float64{math.Inf(1), 0.8} {
		cfg := smallConfig()
		cfg.DirichletAlpha = alpha
		cfg = cfg.WithDefaults()

		spec, _ := data.Lookup(cfg.Dataset)
		spec.Records = cfg.Records
		ds, err := data.Generate(spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		wantSplit := data.NewFLSplit(ds, rng)
		var wantShards []*data.Dataset
		if math.IsInf(alpha, 1) {
			wantShards, err = data.PartitionIID(wantSplit.Train, cfg.Clients, rng)
		} else {
			wantShards, err = data.PartitionDirichlet(wantSplit.Train, cfg.Clients, alpha, rng)
		}
		if err != nil {
			t.Fatal(err)
		}

		split, shards, err := cfg.Partition()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(split.Test.Y, wantSplit.Test.Y) || !reflect.DeepEqual(split.Attacker.Y, wantSplit.Attacker.Y) {
			t.Fatalf("alpha %v: split differs from the hand derivation", alpha)
		}
		const id = 1
		if !reflect.DeepEqual(shards[id].Y, wantShards[id].Y) || !reflect.DeepEqual(shards[id].X.Data(), wantShards[id].X.Data()) {
			t.Fatalf("alpha %v: client %d's shard differs from the hand derivation", alpha, id)
		}

		wantModel, err := model.Build(spec, rand.New(rand.NewSource(cfg.Seed+2)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := cfg.BuildModel()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.StateVector(), wantModel.StateVector()) {
			t.Fatalf("alpha %v: initial model differs from the hand derivation", alpha)
		}

		want, err := NewClient(id, wantModel, wantShards[id], optim.New(cfg.Optimizer, cfg.LearningRate),
			cfg.BatchSize, cfg.LocalEpochs, rand.New(rand.NewSource(cfg.Seed+100+id)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.BuildClient(id, m, shards[id])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Client{want, got} {
			if _, err := c.TrainLocal(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.Model.StateVector(), want.Model.StateVector()) {
			t.Fatalf("alpha %v: client %d trains to other bits than the hand derivation", alpha, id)
		}
		if cfg.DefenseSeed() != cfg.Seed+7 {
			t.Fatalf("defense stream at %d, want Seed+7", cfg.DefenseSeed())
		}
	}
}
