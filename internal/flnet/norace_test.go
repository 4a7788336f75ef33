//go:build !race

package flnet

const raceEnabled = false
