//go:build !race

package kv_test

// raceEnabled reports a build with the race detector; see race_test.go.
const raceEnabled = false
