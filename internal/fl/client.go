package fl

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Client is one FL participant: a local model, a private dataset shard, and
// an optimizer. The defense pipeline wraps its download/upload paths.
type Client struct {
	// ID is the client's index in the federation.
	ID int
	// Model is the client's local model instance.
	Model *nn.Model
	// Data is the client's private training shard.
	Data *data.Dataset
	// Optimizer drives local updates; DINAR uses Adagrad (Algorithm 1).
	Optimizer optim.Optimizer
	// BatchSize and LocalEpochs configure local training.
	BatchSize   int
	LocalEpochs int

	loss nn.SoftmaxCrossEntropy
	// lossRes is the one loss result every training step evaluates into.
	lossRes nn.LossResult
	rng     *rand.Rand
	// meter is the federation's cost meter: fl.NewSystem hands it to each
	// of its clients once. nil everywhere else (a networked client's
	// process has no Table 3 to fill).
	meter *metrics.CostMeter
	// replayBase, when non-zero, reseeds the batch-shuffle rng at the
	// start of every round (see EnableRoundReplay).
	replayBase int64
	// upload is the buffer every round's Update.State is built in, sized
	// once to the model's state.
	upload []float64
}

// NewClient builds a client. The rng seeds batch shuffling and must be unique
// per client for IID batch orders.
func NewClient(id int, m *nn.Model, ds *data.Dataset, opt optim.Optimizer, batchSize, localEpochs int, rng *rand.Rand) (*Client, error) {
	if m == nil || ds == nil || opt == nil {
		return nil, fmt.Errorf("fl: client %d missing model/data/optimizer", id)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("fl: client %d has no data", id)
	}
	if batchSize <= 0 || localEpochs <= 0 {
		return nil, fmt.Errorf("fl: client %d batchSize=%d localEpochs=%d", id, batchSize, localEpochs)
	}
	return &Client{
		ID:          id,
		Model:       m,
		Data:        ds,
		Optimizer:   opt,
		BatchSize:   batchSize,
		LocalEpochs: localEpochs,
		rng:         rng,
		upload:      make([]float64, 0, m.NumState()),
	}, nil
}

// EnableRoundReplay makes each round's local training a pure function of
// (client id, round, global state) by reseeding the batch-shuffle rng from
// base at the start of every RunRound. Crash-safe federations need this:
// when a server resumes from a checkpoint and re-broadcasts a round the
// client already trained, the retrained update is bit-identical to the
// first attempt instead of diverging through the advanced rng stream. A
// zero base disables replay (the default stream behavior).
func (c *Client) EnableRoundReplay(base int64) {
	c.replayBase = base
}

// roundRNG derives the per-round shuffle rng for replay mode (SplitMix64
// finalizer over base, round, and client id so streams decorrelate).
func roundRNG(base int64, round, id int) *rand.Rand {
	z := uint64(base) ^ uint64(round+1)*0x9e3779b97f4a7c15 ^ uint64(id+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// ClientID returns ID (the accessor flnet's Trainer interface asks for).
func (c *Client) ClientID() int { return c.ID }

// Install loads the (defense-transformed) global state into the local model.
func (c *Client) Install(state []float64) error {
	return c.Model.SetStateVector(state)
}

// TrainLocal runs LocalEpochs epochs of mini-batch training and returns the
// mean loss of the final epoch. Algorithm 1 resets the adaptive-gradient
// accumulator at the start of each round (line 8: G ← 0), which Reset
// implements.
func (c *Client) TrainLocal() (float64, error) {
	c.Optimizer.Reset()
	params, grads := c.Model.Params(), c.Model.Grads()
	var lastEpochLoss float64
	for epoch := 0; epoch < c.LocalEpochs; epoch++ {
		var sum float64
		var batches int
		err := c.Data.Batches(c.BatchSize, c.rng, func(x *tensor.Tensor, y []int) error {
			out := c.Model.Forward(x, true)
			res := &c.lossRes
			if err := c.loss.EvalInto(res, out, y); err != nil {
				return fmt.Errorf("client %d: %w", c.ID, err)
			}
			sum += res.Mean
			c.Model.BackwardParams(res.Grad)
			if two, ok := c.Optimizer.(optim.TwoPhase); ok {
				// Sharpness-aware minimization: re-evaluate the gradient at
				// the perturbed parameters before the real update.
				if two.FirstStep(params, grads) {
					out = c.Model.Forward(x, true)
					if err := c.loss.EvalInto(res, out, y); err != nil {
						return fmt.Errorf("client %d: %w", c.ID, err)
					}
					c.Model.BackwardParams(res.Grad)
				}
				two.SecondStep(params, grads)
			} else {
				c.Optimizer.Step(params, grads)
			}
			batches++
			return nil
		})
		if err != nil {
			return 0, err
		}
		if batches > 0 {
			lastEpochLoss = sum / float64(batches)
		}
	}
	return lastEpochLoss, nil
}

// RunRound executes one full client round against the defense pipeline:
// personalize/install, train, protect, and return the upload. The update's
// State is the client's own buffer (unless the defense replaced it): valid
// until this client's next RunRound, which overwrites it.
func (c *Client) RunRound(round int, globalState []float64, def Defense) (*Update, error) {
	state := def.OnGlobalModel(c.ID, round, globalState)
	if err := c.Install(state); err != nil {
		return nil, fmt.Errorf("client %d install: %w", c.ID, err)
	}
	if c.replayBase != 0 {
		c.rng = roundRNG(c.replayBase, round, c.ID)
	}
	start := time.Now()
	if _, err := c.TrainLocal(); err != nil {
		return nil, err
	}
	u := &Update{
		ClientID:   c.ID,
		Round:      round,
		State:      c.Model.AppendStateVector(c.upload[:0]),
		NumSamples: c.Data.Len(),
	}
	def.BeforeUpload(round, globalState, u)
	elapsed := time.Since(start)
	telClientTrainSeconds.Observe(elapsed.Seconds())
	if c.meter != nil {
		c.meter.AddClientTrain(elapsed)
		c.meter.SamplePhase(metrics.PhaseTrain)
	}
	return u, nil
}

// Evaluate computes accuracy and mean loss of the client's current
// (personalized) model on ds in evaluation mode.
func (c *Client) Evaluate(ds *data.Dataset) (accuracy, meanLoss float64, err error) {
	return EvaluateModel(c.Model, ds, c.BatchSize)
}

// EvaluateModel computes accuracy and mean loss of a model over a dataset in
// evaluation mode.
func EvaluateModel(m *nn.Model, ds *data.Dataset, batchSize int) (accuracy, meanLoss float64, err error) {
	var loss nn.SoftmaxCrossEntropy
	var res nn.LossResult
	var correct, total int
	var lossSum float64
	err = ds.Batches(batchSize, nil, func(x *tensor.Tensor, y []int) error {
		out := m.Forward(x, false)
		if lerr := loss.EvalInto(&res, out, y); lerr != nil {
			return lerr
		}
		correct += int(nn.Accuracy(out, y)*float64(len(y)) + 0.5)
		for _, l := range res.PerSample {
			lossSum += l
		}
		total += len(y)
		return nil
	})
	if err != nil || total == 0 {
		return 0, 0, err
	}
	return float64(correct) / float64(total), lossSum / float64(total), nil
}

// PerSampleLosses returns the model's evaluation-mode per-sample losses over
// ds — the attacker-observable signal behind loss-based MIAs and Fig. 3.
func PerSampleLosses(m *nn.Model, ds *data.Dataset, batchSize int) ([]float64, error) {
	var loss nn.SoftmaxCrossEntropy
	var res nn.LossResult
	out := make([]float64, 0, ds.Len())
	err := ds.Batches(batchSize, nil, func(x *tensor.Tensor, y []int) error {
		logits := m.Forward(x, false)
		if lerr := loss.EvalInto(&res, logits, y); lerr != nil {
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
