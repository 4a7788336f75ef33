package flnet

import (
	"math/rand"
	"sort"

	"repro/internal/fl"
)

// Per-round client sampling. At production scale only a fraction of the
// registered fleet participates in each round (K of N); the draw must be
// deterministic given (seed, round, membership) so that a server resumed
// from a checkpoint re-draws the exact cohort it would have drawn before
// the crash, and so that tests and incident forensics can replay a round's
// cohort offline.
//
// SampleOrder is that draw as a pure function: it returns ALL eligible ids
// in a seeded shuffled order. The caller takes the first K as the round's
// cohort and keeps the remainder as an ordered replacement queue — when a
// sampled client is partitioned or times out, the next id in the order
// steps in instead of stalling the round (quorum fallback). Because the
// order is a permutation of the whole eligible set, cohort and replacement
// queue come from one deterministic draw.

// SampleOrder returns the eligible client ids in the deterministic sampling
// order for (seed, round). The result depends only on seed, round, and the
// *set* of ids (the input order is normalized away and the input slice is
// not modified). Same inputs, same order — across processes and across
// crash/resume.
func SampleOrder(seed int64, round int, ids []int) []int {
	order := append([]int(nil), ids...)
	sort.Ints(order)
	// Mix round into the seed so per-round orders are independent draws,
	// then drive a seeded Fisher-Yates shuffle.
	mixed := fl.Mix64(uint64(seed) ^ fl.Mix64(uint64(round)+0x51a4ed55))
	rng := rand.New(rand.NewSource(int64(mixed)))
	rng.Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return order
}
