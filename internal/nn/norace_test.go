//go:build !race

package nn

const raceEnabled = false
