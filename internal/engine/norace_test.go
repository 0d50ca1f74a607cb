//go:build !race

package engine

// raceEnabled reports a build with the race detector; see race_test.go.
const raceEnabled = false
