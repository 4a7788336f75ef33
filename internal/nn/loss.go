package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy couples a softmax over logits with the categorical
// cross-entropy loss. It exposes per-sample losses and probabilities, which
// the membership-inference attacks use as features.
type SoftmaxCrossEntropy struct{}

// LossResult carries the outputs of a loss evaluation.
type LossResult struct {
	// Mean is the batch-mean loss.
	Mean float64
	// PerSample holds the loss of each sample in the batch.
	PerSample []float64
	// Probs holds softmax probabilities, shape [B, C].
	Probs *tensor.Tensor
	// Grad is the gradient of the mean loss with respect to the logits,
	// shape [B, C].
	Grad *tensor.Tensor

	// ws backs Probs and Grad across EvalInto calls.
	ws tensor.Workspace
}

// Eval computes softmax probabilities, per-sample cross-entropy losses, the
// batch-mean loss, and the gradient with respect to the logits. labels[i] is
// the class index of sample i.
func (l SoftmaxCrossEntropy) Eval(logits *tensor.Tensor, labels []int) (*LossResult, error) {
	res := new(LossResult)
	if err := l.EvalInto(res, logits, labels); err != nil {
		return nil, err
	}
	return res, nil
}

// EvalInto is Eval into res, reusing the buffers of res's previous
// evaluation: a training loop keeps one result and allocates nothing per
// step. Everything res held before is overwritten.
func (SoftmaxCrossEntropy) EvalInto(res *LossResult, logits *tensor.Tensor, labels []int) error {
	if logits.Dims() != 2 {
		return fmt.Errorf("nn: loss expects [B, C] logits, got %v", logits.Shape())
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		return fmt.Errorf("nn: %d labels for batch of %d", len(labels), batch)
	}
	probs := res.ws.Get2D(0, batch, classes)
	grad := res.ws.Get2D(1, batch, classes)
	if cap(res.PerSample) < batch {
		res.PerSample = make([]float64, batch)
	}
	perSample := res.PerSample[:batch]
	ld, pd, gd := logits.Data(), probs.Data(), grad.Data()
	mean := 0.0
	invB := 1.0 / float64(batch)
	for i := 0; i < batch; i++ {
		y := labels[i]
		if y < 0 || y >= classes {
			return fmt.Errorf("nn: label %d out of range [0,%d)", y, classes)
		}
		row := ld[i*classes : (i+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		pRow := pd[i*classes : (i+1)*classes]
		for j, v := range row {
			e := math.Exp(v - maxv)
			pRow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range pRow {
			pRow[j] *= inv
		}
		// Clamp to avoid log(0) on confident wrong predictions.
		p := pRow[y]
		if p < 1e-12 {
			p = 1e-12
		}
		perSample[i] = -math.Log(p)
		mean += perSample[i]
		gRow := gd[i*classes : (i+1)*classes]
		for j := range gRow {
			gRow[j] = pRow[j] * invB
		}
		gRow[y] -= invB
	}
	res.Mean, res.PerSample, res.Probs, res.Grad = mean*invB, perSample, probs, grad
	return nil
}

// Softmax returns row-wise softmax probabilities for [B, C] logits.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	batch, classes := logits.Dim(0), logits.Dim(1)
	probs := tensor.New(batch, classes)
	ld, pd := logits.Data(), probs.Data()
	for i := 0; i < batch; i++ {
		row := ld[i*classes : (i+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		pRow := pd[i*classes : (i+1)*classes]
		for j, v := range row {
			e := math.Exp(v - maxv)
			pRow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range pRow {
			pRow[j] *= inv
		}
	}
	return probs
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	batch, classes := logits.Dim(0), logits.Dim(1)
	if batch == 0 {
		return 0
	}
	ld := logits.Data()
	correct := 0
	for i := 0; i < batch; i++ {
		row := ld[i*classes : (i+1)*classes]
		best, bestJ := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bestJ = v, j+1
			}
		}
		if bestJ == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(batch)
}
