//go:build !race

package serve

// raceEnabled reports a build with the race detector; see race_test.go.
const raceEnabled = false
