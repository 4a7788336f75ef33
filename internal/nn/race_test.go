//go:build race

package nn

// raceEnabled: sync.Pool drops a quarter of its Puts under the race
// detector, so allocation counts through the GEMM packing pool mean nothing
// there.
const raceEnabled = true
