//go:build race

package serve

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a random quarter of what is put back: allocation counts of pooled
// code then say nothing about the code.
const raceEnabled = true
