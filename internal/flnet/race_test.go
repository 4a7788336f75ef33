//go:build race

package flnet

// raceEnabled: sync.Pool drops a quarter of its Puts under the race
// detector, so allocation counts through the pools mean nothing there.
const raceEnabled = true
