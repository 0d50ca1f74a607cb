package core

import (
	"testing"

	"repro/internal/index"
)

// TestJoinCountersOnXMarkReplay: replaying the workload against a blocked
// LUI index must exercise the block-skipping kernels — nonzero blocks read,
// nonzero blocks skipped — and build postings for the URIs that survive the
// look-ups' intersections, and the counters must be a pure function of
// corpus + workload (two identical runs agree exactly).
func TestJoinCountersOnXMarkReplay(t *testing.T) {
	docs := obsTestCorpus()
	read := func() (r, s, c int64) {
		w, _ := indexCorpus(t, Config{Strategy: index.LUI}, 2, docs)
		runWorkload(t, w)
		reg := w.Registry()
		return reg.Counter("index.join.blocks_read").Value(),
			reg.Counter("index.join.blocks_skipped").Value(),
			reg.Counter("index.lookup.postings_built").Value()
	}
	r1, s1, c1 := read()
	if r1 == 0 || s1 == 0 || c1 == 0 {
		t.Fatalf("join counters = read %d, skipped %d, postings built %d; want all nonzero", r1, s1, c1)
	}
	r2, s2, c2 := read()
	if r1 != r2 || s1 != s2 || c1 != c2 {
		t.Errorf("counters not deterministic: (%d,%d,%d) vs (%d,%d,%d)", r1, s1, c1, r2, s2, c2)
	}
}
