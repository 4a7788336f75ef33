package consensus

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func honest(votes ...int) []Node {
	nodes := make([]Node, len(votes))
	for i, v := range votes {
		nodes[i] = Node{ID: i, Vote: v}
	}
	return nodes
}

func TestUnanimousVote(t *testing.T) {
	res, err := Run(context.Background(), honest(4, 4, 4, 4, 4), 6, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Fatalf("value = %d, want 4", res.Value)
	}
	if res.Tally[4] != 5 {
		t.Fatalf("tally = %v", res.Tally)
	}
}

func TestMajorityVote(t *testing.T) {
	res, err := Run(context.Background(), honest(2, 2, 2, 1, 0), 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("value = %d, want 2", res.Value)
	}
}

func TestNoMajorityFails(t *testing.T) {
	_, err := Run(context.Background(), honest(0, 1, 2, 3), 4, rand.New(rand.NewSource(1)))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestByzantineMinorityTolerated(t *testing.T) {
	// 5 honest voting 3, 2 Byzantine lying arbitrarily: 5/7 > 1/2 majority,
	// so every honest node still sees >= 5 votes for 3 out of 7.
	nodes := []Node{
		{ID: 0, Vote: 3}, {ID: 1, Vote: 3}, {ID: 2, Vote: 3},
		{ID: 3, Vote: 3}, {ID: 4, Vote: 3},
		{ID: 5, Byzantine: true}, {ID: 6, Byzantine: true},
	}
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(context.Background(), nodes, 8, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != 3 {
			t.Fatalf("seed %d: value = %d, want 3", seed, res.Value)
		}
	}
}

func TestByzantineCannotForceWithoutHonestMajority(t *testing.T) {
	// 2 honest split votes + 3 Byzantine: no honest absolute majority is
	// guaranteed; the protocol must either agree on an honest-supported
	// value or fail, never crash.
	nodes := []Node{
		{ID: 0, Vote: 1}, {ID: 1, Vote: 2},
		{ID: 2, Byzantine: true}, {ID: 3, Byzantine: true}, {ID: 4, Byzantine: true},
	}
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(context.Background(), nodes, 4, rand.New(rand.NewSource(seed)))
		if err != nil {
			if !errors.Is(err, ErrNoQuorum) {
				t.Fatalf("seed %d: unexpected error %v", seed, err)
			}
			continue
		}
		if res.Value < 0 || res.Value >= 4 {
			t.Fatalf("seed %d: out-of-domain value %d", seed, res.Value)
		}
	}
}

func TestInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Run(context.Background(), nil, 3, rng); err == nil {
		t.Fatal("accepted zero nodes")
	}
	if _, err := Run(context.Background(), honest(0), 0, rng); err == nil {
		t.Fatal("accepted zero choices")
	}
	if _, err := Run(context.Background(), honest(7), 3, rng); err == nil {
		t.Fatal("accepted out-of-range vote")
	}
}

func TestAllByzantineFails(t *testing.T) {
	nodes := []Node{{ID: 0, Byzantine: true}, {ID: 1, Byzantine: true}}
	if _, err := Run(context.Background(), nodes, 3, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, honest(1, 1, 1), 3, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("cancelled run should fail")
	}
}

// Property: with an honest absolute majority voting v, the protocol returns v
// regardless of the minority's behaviour.
func TestQuickHonestMajorityWins(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		choices := 2 + rng.Intn(8)
		v := rng.Intn(choices)
		majority := n/2 + 1
		nodes := make([]Node, n)
		for i := range nodes {
			switch {
			case i < majority:
				nodes[i] = Node{ID: i, Vote: v}
			case rng.Float64() < 0.5:
				nodes[i] = Node{ID: i, Byzantine: true}
			default:
				nodes[i] = Node{ID: i, Vote: rng.Intn(choices)}
			}
		}
		res, err := Run(context.Background(), nodes, choices, rng)
		return err == nil && res.Value == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
