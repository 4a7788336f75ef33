package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// denseActComposition returns the fused layer and the equivalent two-layer
// stack built from the same seed. NewDenseAct draws exactly NewDense's
// values, so both start from bit-identical parameters.
func denseActComposition(act Activation, in, out int) (*Dense, *Model) {
	fused := NewDenseAct(in, out, act, rand.New(rand.NewSource(51)))
	plain := NewDense(in, out, rand.New(rand.NewSource(51)))
	var actLayer Layer
	switch act {
	case ActReLU:
		actLayer = NewReLU()
	case ActTanh:
		actLayer = NewTanh()
	}
	return fused, NewModel(plain, actLayer)
}

// TestDenseActBitIdenticalComposition is the fused-dense correctness gate:
// for both activations, a training step of the fused layer must produce
// bit-identical output, input gradient, and parameter gradients to the
// Dense→activation two-layer composition, on cold and warm workspaces and
// across batch sizes (including gradients carrying exact zeros, which the
// GEMM zero-skip convention must treat identically on both routes).
func TestDenseActBitIdenticalComposition(t *testing.T) {
	for _, act := range []Activation{ActReLU, ActTanh} {
		for _, batch := range []int{1, 3, 8} {
			fused, stack := denseActComposition(act, 13, 9)
			x := tensor.Randn(rand.New(rand.NewSource(52)), 0, 1, batch, 13)
			g := tensor.Randn(rand.New(rand.NewSource(53)), 0, 1, batch, 9)
			gd := g.Data()
			zrng := rand.New(rand.NewSource(54))
			for i := range gd {
				if zrng.Intn(4) == 0 {
					gd[i] = 0
				}
			}
			for step := 0; step < 2; step++ {
				fusedOut := fused.Forward(x, true)
				stackOut := stack.Forward(x, true)
				if !equalData(fusedOut.Data(), stackOut.Data()) {
					t.Fatalf("%s batch=%d step=%d: fused forward diverges from composition", act, batch, step)
				}
				fusedGin := fused.Backward(g)
				stackGin := stack.Backward(g)
				if !equalData(fusedGin.Data(), stackGin.Data()) {
					t.Fatalf("%s batch=%d step=%d: fused input grad diverges from composition", act, batch, step)
				}
				want := stack.GradVector()
				got := append(append([]float64(nil), fused.gw.Data()...), fused.gb.Data()...)
				if !equalData(got, want) {
					t.Fatalf("%s batch=%d step=%d: fused param grads diverge from composition", act, batch, step)
				}
			}
		}
	}
}

// TestDenseActReLUSpecialValues holds the fused ReLU's branch-free select
// to the branchy reference on special pre-activations: the bias carries
// every value of selectSpecials, added to an all-zero row and to random
// rows, and the reference runs the plain Dense, the branchy ReLU on its
// output and the plain backward on the masked gradient.
func TestDenseActReLUSpecialValues(t *testing.T) {
	out := len(selectSpecials)
	fused, plain := NewDenseAct(5, out, ActReLU, rand.New(rand.NewSource(58))), NewDense(5, out, rand.New(rand.NewSource(58)))
	copy(fused.b.Data(), selectSpecials)
	copy(plain.b.Data(), selectSpecials)
	x := tensor.Randn(rand.New(rand.NewSource(59)), 0, 1, 3, 5)
	clear(x.Data()[:5])
	g := tensor.Randn(rand.New(rand.NewSource(60)), 0, 1, 3, out)
	copy(g.Data()[out:], selectSpecials)

	got := fused.Forward(x, true).Data()
	pre := plain.Forward(x, true).Data()
	masked := tensor.New(3, out)
	for i, v := range pre {
		if math.Float64bits(got[i]) != math.Float64bits(refReLU(v)) {
			t.Errorf("relu(%v) = %v, want %v", v, got[i], refReLU(v))
		}
		if v > 0 {
			masked.Data()[i] = g.Data()[i]
		}
	}
	gin := fused.Backward(g)
	wantGin := plain.Backward(masked)
	if !sameBits(gin.Data(), wantGin.Data()) || !sameBits(fused.gw.Data(), plain.gw.Data()) || !sameBits(fused.gb.Data(), plain.gb.Data()) {
		t.Error("fused ReLU backward diverges from the branchy reference")
	}
}

// TestDenseActClone pins clone semantics for the fused layer: the clone keeps
// the activation, deep-copies parameters, and trains independently.
func TestDenseActClone(t *testing.T) {
	orig := NewDenseAct(6, 4, ActTanh, rand.New(rand.NewSource(55)))
	clone := orig.cloneLayer().(*Dense)
	if clone.Act != ActTanh {
		t.Fatalf("clone dropped the fused activation: %v", clone.Act)
	}
	if !equalData(clone.w.Data(), orig.w.Data()) {
		t.Fatal("clone weights differ")
	}
	x := tensor.Randn(rand.New(rand.NewSource(56)), 0, 1, 3, 6)
	out := clone.Forward(x, true)
	clone.Backward(out)
	clone.w.Data()[0] += 1
	if clone.w.Data()[0] == orig.w.Data()[0] {
		t.Fatal("clone aliases original weights")
	}
}

// TestDenseActNames pins the fused layers' distinct names (span names feed
// Describe and duplicate detection).
func TestDenseActNames(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	if got := NewDenseAct(3, 4, ActReLU, rng).Name(); got != "dense(3->4)+relu" {
		t.Fatalf("relu name = %q", got)
	}
	if got := NewDenseAct(3, 4, ActTanh, rng).Name(); got != "dense(3->4)+tanh" {
		t.Fatalf("tanh name = %q", got)
	}
	if got := NewDense(3, 4, rng).Name(); got != "dense(3->4)" {
		t.Fatalf("plain name = %q", got)
	}
}
