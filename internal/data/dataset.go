package data

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dataset is an in-memory labeled dataset. X holds one sample per row of the
// first dimension; Y holds the class labels.
type Dataset struct {
	Spec Spec
	X    *tensor.Tensor
	Y    []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// sampleLen returns the flattened per-sample length.
func (d *Dataset) sampleLen() int {
	if d.Len() == 0 {
		return 0
	}
	return d.X.Len() / d.Len()
}

// Subset returns a new dataset containing the samples at the given indices
// (copied).
func (d *Dataset) Subset(indices []int) *Dataset {
	shape := append([]int{len(indices)}, d.Spec.InputShape()...)
	x := tensor.New(shape...)
	y := make([]int, len(indices))
	n := d.sampleLen()
	xd, src := x.Data(), d.X.Data()
	for i, idx := range indices {
		copy(xd[i*n:(i+1)*n], src[idx*n:(idx+1)*n])
		y[i] = d.Y[idx]
	}
	return &Dataset{Spec: d.Spec, X: x, Y: y}
}

// Split partitions the dataset into two parts with the first containing
// round(frac*N) samples, preserving order.
func (d *Dataset) Split(frac float64) (*Dataset, *Dataset) {
	n := d.Len()
	cut := int(float64(n)*frac + 0.5)
	if cut > n {
		cut = n
	}
	first := make([]int, cut)
	second := make([]int, n-cut)
	for i := range first {
		first[i] = i
	}
	for i := range second {
		second[i] = cut + i
	}
	return d.Subset(first), d.Subset(second)
}

// Shuffled returns a copy of the dataset with rows permuted by rng.
func (d *Dataset) Shuffled(rng *rand.Rand) *Dataset {
	idx := rng.Perm(d.Len())
	return d.Subset(idx)
}

// Batch extracts rows [lo, hi) as a batch tensor plus labels.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	if lo < 0 || hi > d.Len() || lo >= hi {
		panic(fmt.Sprintf("data: batch [%d,%d) of %d samples", lo, hi, d.Len()))
	}
	shape := append([]int{hi - lo}, d.Spec.InputShape()...)
	x := tensor.New(shape...)
	n := d.sampleLen()
	copy(x.Data(), d.X.Data()[lo*n:hi*n])
	return x, append([]int(nil), d.Y[lo:hi]...)
}

// Batches invokes fn for every mini-batch of size batchSize (the final batch
// may be smaller), in rng's shuffled order when rng is non-nil: the (x, y)
// sequence of Shuffled(rng) cut by Batch. Each batch is gathered straight
// from d into one tensor and one label slice that every call of fn shares (a
// ragged final batch gets a tensor of its own shape), so fn must not keep x
// or y past its return.
func (d *Dataset) Batches(batchSize int, rng *rand.Rand, fn func(x *tensor.Tensor, y []int) error) error {
	if batchSize <= 0 {
		return fmt.Errorf("data: batch size %d", batchSize)
	}
	var perm []int
	if rng != nil {
		perm = rng.Perm(d.Len())
	}
	n, src := d.sampleLen(), d.X.Data()
	var x *tensor.Tensor
	y := make([]int, 0, min(batchSize, d.Len()))
	for lo := 0; lo < d.Len(); lo += batchSize {
		hi := min(lo+batchSize, d.Len())
		if x == nil || x.Dim(0) != hi-lo {
			x = tensor.New(append([]int{hi - lo}, d.Spec.InputShape()...)...)
		}
		xd := x.Data()
		y = y[:0]
		for i := lo; i < hi; i++ {
			idx := i
			if perm != nil {
				idx = perm[i]
			}
			copy(xd[(i-lo)*n:], src[idx*n:(idx+1)*n])
			y = append(y, d.Y[idx])
		}
		if err := fn(x, y); err != nil {
			return err
		}
	}
	return nil
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Spec.Classes)
	for _, y := range d.Y {
		if y >= 0 && y < len(counts) {
			counts[y]++
		}
	}
	return counts
}

// Concat returns a dataset containing all samples of the arguments, which
// must share a spec.
func Concat(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("data: concat of zero datasets")
	}
	total := 0
	for _, p := range parts {
		if p.Spec.Name != parts[0].Spec.Name {
			return nil, fmt.Errorf("data: concat mixes %q and %q", parts[0].Spec.Name, p.Spec.Name)
		}
		total += p.Len()
	}
	shape := append([]int{total}, parts[0].Spec.InputShape()...)
	x := tensor.New(shape...)
	y := make([]int, 0, total)
	off := 0
	for _, p := range parts {
		copy(x.Data()[off:], p.X.Data())
		off += p.X.Len()
		y = append(y, p.Y...)
	}
	return &Dataset{Spec: parts[0].Spec, X: x, Y: y}, nil
}

// FLSplit is the paper's data layout (§5.1): half of all records form the
// attacker's prior knowledge; the remaining half is divided into train (80%)
// and test (20%).
type FLSplit struct {
	// Attacker is the MIA adversary's prior-knowledge pool.
	Attacker *Dataset
	// Train is the member pool, to be partitioned across FL clients.
	Train *Dataset
	// Test is the held-out non-member evaluation pool.
	Test *Dataset
}

// NewFLSplit shuffles ds and applies the paper's ½ attacker + 80/20
// train/test protocol.
func NewFLSplit(ds *Dataset, rng *rand.Rand) *FLSplit {
	shuffled := ds.Shuffled(rng)
	attacker, rest := shuffled.Split(0.5)
	train, test := rest.Split(0.8)
	return &FLSplit{Attacker: attacker, Train: train, Test: test}
}
