package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
)

// setup generates a dataset, splits it per the paper's protocol, and overfits
// a target model on the member pool.
func setup(t *testing.T, epochs int) (*nn.Model, *data.FLSplit, data.Spec) {
	t.Helper()
	spec, err := data.Lookup("purchase100")
	if err != nil {
		t.Fatal(err)
	}
	spec.Records = 800
	ds, err := data.Generate(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	split := data.NewFLSplit(ds, rand.New(rand.NewSource(21)))
	m := model.FCNN6(spec.Features, spec.Classes, rand.New(rand.NewSource(1)))
	if epochs > 0 {
		if err := trainModel(m, split.Train, epochs, 32, 0.1, rand.New(rand.NewSource(2))); err != nil {
			t.Fatal(err)
		}
	}
	return m, split, spec
}

func TestLossAttackOnOverfitModel(t *testing.T) {
	m, split, _ := setup(t, 25)
	auc, err := NewLossAttack().AUC(m, split.Train, split.Test)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.60 {
		t.Fatalf("loss attack AUC %v on overfit model, want > 0.60", auc)
	}
}

func TestLossAttackOnFreshModelIsChance(t *testing.T) {
	m, split, _ := setup(t, 0)
	auc, err := NewLossAttack().AUC(m, split.Train, split.Test)
	if err != nil {
		t.Fatal(err)
	}
	if auc > 0.58 {
		t.Fatalf("loss attack AUC %v on untrained model, want ~0.5", auc)
	}
}

func TestShadowAttackOnOverfitModel(t *testing.T) {
	m, split, spec := setup(t, 25)
	atk := NewShadowAttack(31)
	atk.Epochs = 20
	build := func(rng *rand.Rand) (*nn.Model, error) {
		return model.FCNN6(spec.Features, spec.Classes, rng), nil
	}
	if err := atk.Fit(split.Attacker, build); err != nil {
		t.Fatal(err)
	}
	if atk.clf == nil {
		t.Fatal("no classifier after Fit")
	}
	auc, err := atk.AUC(m, split.Train, split.Test)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.58 {
		t.Fatalf("shadow attack AUC %v on overfit model, want > 0.58", auc)
	}
}

func TestShadowAttackBeforeFitErrors(t *testing.T) {
	m, split, _ := setup(t, 0)
	atk := NewShadowAttack(1)
	if _, err := atk.Scores(m, split.Test); err == nil {
		t.Fatal("Scores before Fit should fail")
	}
}

func TestShadowAttackValidation(t *testing.T) {
	_, split, spec := setup(t, 0)
	build := func(rng *rand.Rand) (*nn.Model, error) {
		return model.FCNN6(spec.Features, spec.Classes, rng), nil
	}
	atk := NewShadowAttack(1)
	atk.NumShadows = 0
	if err := atk.Fit(split.Attacker, build); err == nil {
		t.Fatal("accepted zero shadows")
	}
	atk = NewShadowAttack(1)
	tiny := split.Attacker.Subset([]int{0, 1, 2})
	if err := atk.Fit(tiny, build); err == nil {
		t.Fatal("accepted tiny pool")
	}
}

func TestFeaturesShape(t *testing.T) {
	m, split, _ := setup(t, 0)
	feats, err := Features(m, split.Test, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != split.Test.Len() {
		t.Fatalf("features rows = %d, want %d", len(feats), split.Test.Len())
	}
	for _, f := range feats {
		if len(f) != numFeatures {
			t.Fatalf("feature width = %d", len(f))
		}
		// Sorted top-3 probabilities must be descending and within [0,1].
		if f[0] < f[1] || f[1] < f[2] {
			t.Fatalf("top-3 not sorted: %v", f[:3])
		}
		for _, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite feature: %v", f)
			}
		}
		if f[5] < 0 || f[5] > 1.001 {
			t.Fatalf("normalized entropy %v out of range", f[5])
		}
	}
}

func TestLogisticSeparatesLinearlySeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var feats [][]float64
	var labels []bool
	for i := 0; i < 400; i++ {
		f := make([]float64, numFeatures)
		pos := i%2 == 0
		for k := range f {
			f[k] = rng.NormFloat64() * 0.1
		}
		if pos {
			f[0] += 1
		} else {
			f[0] -= 1
		}
		feats = append(feats, f)
		labels = append(labels, pos)
	}
	clf := trainLogistic(feats, labels, 20, 0.5, rng)
	correct := 0
	for i, f := range feats {
		if (clf.prob(f) > 0.5) == labels[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(feats)) < 0.95 {
		t.Fatalf("logistic accuracy %d/%d on separable data", correct, len(feats))
	}
}

func TestScoreAUCFloorsAtChance(t *testing.T) {
	// Perfectly inverted scores are a below-chance attack: the uncalibrated
	// attacker gains nothing, so the reported AUC floors at 0.5.
	auc, err := scoreAUC([]float64{0.1, 0.2}, []float64{0.8, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Fatalf("floored AUC = %v, want 0.5", auc)
	}
	// Correctly ordered scores pass through unchanged.
	auc, err = scoreAUC([]float64{0.8, 0.9}, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("AUC = %v, want 1", auc)
	}
}
