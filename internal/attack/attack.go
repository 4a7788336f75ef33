// Package attack implements the membership inference attacks (MIAs) used to
// evaluate every defense, following the standard Shokri et al. setting the
// paper adopts (§2.2, §5.5 [41]):
//
//   - ShadowAttack: the attacker trains shadow models on its prior-knowledge
//     data pool (half of the dataset, §5.1), harvests prediction features for
//     known members and non-members of the shadows, trains a binary attack
//     classifier on them, and applies it to the target model's predictions.
//   - LossAttack: the classic loss-threshold attack — members have lower
//     loss on an overfit model — used where the cheap signal suffices (the
//     per-layer sweeps of Figs. 4 and 5).
//
// Attack success is reported as attack AUC in [50%, 100%] (Appendix A).
package attack

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// numFeatures is the size of the per-sample attack feature vector:
// top-3 sorted softmax probabilities, probability of the true class,
// per-sample loss, and prediction entropy.
const numFeatures = 6

// Features extracts the attack feature matrix for every sample of ds under
// model m (evaluation mode). One row per sample.
func Features(m *nn.Model, ds *data.Dataset, batchSize int) ([][]float64, error) {
	var loss nn.SoftmaxCrossEntropy
	out := make([][]float64, 0, ds.Len())
	err := ds.Batches(batchSize, nil, func(x *tensor.Tensor, y []int) error {
		logits := m.Forward(x, false)
		res, lerr := loss.Eval(logits, y)
		if lerr != nil {
			return lerr
		}
		classes := logits.Dim(1)
		for i := range y {
			row, _ := res.Probs.Row(i)
			f := make([]float64, numFeatures)
			top := append([]float64(nil), row...)
			sort.Sort(sort.Reverse(sort.Float64Slice(top)))
			for k := 0; k < 3 && k < classes; k++ {
				f[k] = top[k]
			}
			f[3] = row[y[i]]
			f[4] = math.Min(res.PerSample[i], 20) / 20 // bounded loss
			ent := 0.0
			for _, p := range row {
				if p > 1e-12 {
					ent -= p * math.Log(p)
				}
			}
			f[5] = ent / math.Log(float64(classes)+1e-12)
			out = append(out, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// logistic is a tiny logistic-regression binary classifier over attack
// features, trained with SGD. It is the attack model of the shadow attack.
type logistic struct {
	w []float64
	b float64
}

func trainLogistic(features [][]float64, labels []bool, epochs int, lr float64, rng *rand.Rand) *logistic {
	clf := &logistic{w: make([]float64, numFeatures)}
	idx := make([]int, len(features))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			p := clf.prob(features[i])
			t := 0.0
			if labels[i] {
				t = 1
			}
			g := p - t
			for k, f := range features[i] {
				clf.w[k] -= lr * g * f
			}
			clf.b -= lr * g
		}
	}
	return clf
}

func (c *logistic) prob(f []float64) float64 {
	z := c.b
	for k, v := range f {
		z += c.w[k] * v
	}
	return 1 / (1 + math.Exp(-z))
}

// ShadowAttack is the Shokri-style shadow-model MIA.
type ShadowAttack struct {
	// NumShadows is the number of shadow models (default 2).
	NumShadows int
	// Epochs, BatchSize, LR configure shadow-model training.
	Epochs    int
	BatchSize int
	LR        float64
	// AttackEpochs configures the attack-classifier training.
	AttackEpochs int
	// Seed drives all attack randomness.
	Seed int64

	clf *logistic
}

// NewShadowAttack returns a shadow attack with sensible scaled defaults.
func NewShadowAttack(seed int64) *ShadowAttack {
	return &ShadowAttack{
		NumShadows:   2,
		Epochs:       15,
		BatchSize:    32,
		LR:           0.05,
		AttackEpochs: 30,
		Seed:         seed,
	}
}

// Fit trains the shadow models on the attacker's prior-knowledge pool and
// fits the attack classifier. build must construct the target architecture.
func (a *ShadowAttack) Fit(pool *data.Dataset, build func(rng *rand.Rand) (*nn.Model, error)) error {
	if a.NumShadows < 1 {
		return fmt.Errorf("attack: NumShadows = %d", a.NumShadows)
	}
	if pool.Len() < 4*a.NumShadows {
		return fmt.Errorf("attack: pool of %d too small for %d shadows", pool.Len(), a.NumShadows)
	}
	rng := rand.New(rand.NewSource(a.Seed))
	var feats [][]float64
	var labels []bool
	shards, err := data.PartitionIID(pool, a.NumShadows, rng)
	if err != nil {
		return fmt.Errorf("attack: shard pool: %w", err)
	}
	for s, shard := range shards {
		inSet, outSet := shard.Shuffled(rng).Split(0.5)
		shadow, err := build(rand.New(rand.NewSource(a.Seed + int64(s) + 1)))
		if err != nil {
			return fmt.Errorf("attack: build shadow %d: %w", s, err)
		}
		if err := trainModel(shadow, inSet, a.Epochs, a.BatchSize, a.LR, rng); err != nil {
			return fmt.Errorf("attack: train shadow %d: %w", s, err)
		}
		inF, err := Features(shadow, inSet, a.BatchSize)
		if err != nil {
			return err
		}
		outF, err := Features(shadow, outSet, a.BatchSize)
		if err != nil {
			return err
		}
		for _, f := range inF {
			feats = append(feats, f)
			labels = append(labels, true)
		}
		for _, f := range outF {
			feats = append(feats, f)
			labels = append(labels, false)
		}
	}
	a.clf = trainLogistic(feats, labels, a.AttackEpochs, 0.1, rng)
	return nil
}

// Fitted reports whether Fit has run.
func (a *ShadowAttack) Fitted() bool { return a.clf != nil }

// Scores returns per-sample membership scores (higher = more likely member)
// for ds under the target model m.
func (a *ShadowAttack) Scores(m *nn.Model, ds *data.Dataset) ([]float64, error) {
	if a.clf == nil {
		return nil, fmt.Errorf("attack: Scores before Fit")
	}
	feats, err := Features(m, ds, a.BatchSize)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(feats))
	for i, f := range feats {
		scores[i] = a.clf.prob(f)
	}
	return scores, nil
}

// AUC runs the fitted attack against the target model, scoring the given
// member and non-member sets, and returns the attack AUC in [0.5, 1].
func (a *ShadowAttack) AUC(m *nn.Model, members, nonMembers *data.Dataset) (float64, error) {
	ms, err := a.Scores(m, members)
	if err != nil {
		return 0, err
	}
	ns, err := a.Scores(m, nonMembers)
	if err != nil {
		return 0, err
	}
	return scoreAUC(ms, ns)
}

// LossAttack is the loss-threshold MIA: membership score = −loss. On an
// overfit model, members exhibit systematically lower loss.
type LossAttack struct {
	// BatchSize for evaluation passes.
	BatchSize int
}

// NewLossAttack returns a loss-threshold attack.
func NewLossAttack() *LossAttack { return &LossAttack{BatchSize: 64} }

// AUC scores members and non-members by negative loss and returns the attack
// AUC in [0.5, 1].
func (a *LossAttack) AUC(m *nn.Model, members, nonMembers *data.Dataset) (float64, error) {
	bs := a.BatchSize
	if bs <= 0 {
		bs = 64
	}
	ml, err := perSampleLosses(m, members, bs)
	if err != nil {
		return 0, err
	}
	nl, err := perSampleLosses(m, nonMembers, bs)
	if err != nil {
		return 0, err
	}
	negate(ml)
	negate(nl)
	return scoreAUC(ml, nl)
}

func negate(xs []float64) {
	for i := range xs {
		xs[i] = -xs[i]
	}
}

// scoreAUC merges member and non-member score slices and computes the raw
// attack AUC, floored at 0.5.
//
// The floor matches the paper's attacker model (Appendix A: attack AUC lives
// in [50%, 100%]): the attacker fixes its score direction a priori (shadow
// training or "members have lower loss") and cannot calibrate the sign
// against ground-truth membership of the target. An attack that performs
// below chance is therefore no better than random — 50%. (A hypothetical
// calibrated attacker would fold an AUC below 0.5 to its mirror instead of
// flooring it.)
func scoreAUC(memberScores, nonMemberScores []float64) (float64, error) {
	scores := make([]float64, 0, len(memberScores)+len(nonMemberScores))
	labels := make([]bool, 0, cap(scores))
	for _, s := range memberScores {
		scores = append(scores, s)
		labels = append(labels, true)
	}
	for _, s := range nonMemberScores {
		scores = append(scores, s)
		labels = append(labels, false)
	}
	auc, err := metrics.AUC(scores, labels)
	if err != nil {
		return 0, err
	}
	if auc < 0.5 {
		auc = 0.5
	}
	return auc, nil
}

// perSampleLosses evaluates eval-mode per-sample losses.
func perSampleLosses(m *nn.Model, ds *data.Dataset, batchSize int) ([]float64, error) {
	var loss nn.SoftmaxCrossEntropy
	out := make([]float64, 0, ds.Len())
	err := ds.Batches(batchSize, nil, func(x *tensor.Tensor, y []int) error {
		logits := m.Forward(x, false)
		res, lerr := loss.Eval(logits, y)
		if lerr != nil {
			return lerr
		}
		out = append(out, res.PerSample...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// trainModel is plain centralized SGD training used for shadow models.
func trainModel(m *nn.Model, ds *data.Dataset, epochs, batchSize int, lr float64, rng *rand.Rand) error {
	var loss nn.SoftmaxCrossEntropy
	params, grads := m.Params(), m.Grads()
	for e := 0; e < epochs; e++ {
		err := ds.Batches(batchSize, rng, func(x *tensor.Tensor, y []int) error {
			out := m.Forward(x, true)
			res, lerr := loss.Eval(out, y)
			if lerr != nil {
				return lerr
			}
			m.BackwardParams(res.Grad)
			for i, p := range params {
				pd, gd := p.Data(), grads[i].Data()
				for j := range pd {
					pd[j] -= lr * gd[j]
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
