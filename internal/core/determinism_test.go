package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// TestConcurrentMixedScheduleRepeats: a short concurrent mixed schedule
// bills one ledger and one modeled time, run after run. One goroutine
// queries the XMark documents at a pinned version, again and again; beside
// it, another updates and removes the paintings, with auto-compaction, and
// queries them after each write; the posting cache serves both. The
// schedule leaves no charge to the interleaving: the first goroutine's
// look-ups all hit the cache (warmed at the pinned version, whose entries
// neither writes nor folds replace) and fetch documents nobody writes. Two
// runs can differ only where a charge reads state the other goroutine is
// changing, such as the cache's size, the write buffer or the corpus
// version.
func TestConcurrentMixedScheduleRepeats(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if a, b := mixedSchedule(t, seed), mixedSchedule(t, seed); a != b {
			t.Errorf("seed %d: two runs billed\n%s\nand\n%s", seed, a, b)
		}
	}
}

// mixedSchedule runs the schedule of TestConcurrentMixedScheduleRepeats and
// renders its ledger, instance time and the queries' modeled times.
func mixedSchedule(t *testing.T, seed int64) string {
	t.Helper()
	w, err := New(Config{
		Strategy:          index.TwoLUPI,
		MutableCorpus:     true,
		CompactEveryDocs:  3,
		PostingCacheBytes: 64 << 20, // no eviction, whose victims would depend on the interleaving
	})
	if err != nil {
		t.Fatal(err)
	}
	in := ec2.Launch(w.ledger, ec2.XL)
	read := chaosCorpus(seed)[:8]
	written := xmark.Paintings()
	for _, docs := range [][]xmark.Doc{read, written} {
		for _, d := range docs {
			if err := w.UpdateDocument(in, d.URI, d.Data); err != nil {
				t.Fatal(err)
			}
		}
	}

	pinned := w.Corpus().Pin()
	var readTime time.Duration
	for _, q := range workload.XMark() { // warms the cache at the pinned version
		readTime += ask(t, w, in, q.Text, pinned)
	}
	done := make(chan time.Duration)
	go func() {
		rin := ec2.Launch(w.ledger, ec2.XL)
		var d time.Duration
		for round := 0; round < 3; round++ {
			for _, q := range workload.XMark() {
				d += ask(t, w, rin, q.Text, pinned)
			}
		}
		done <- d
	}()
	win := ec2.Launch(w.ledger, ec2.Large)
	var writeTime time.Duration
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(written)) {
		d := written[j]
		if i%4 == 3 {
			err = w.RemoveDocument(win, d.URI)
		} else {
			err = w.UpdateDocument(win, d.URI, stampDoc(t, d.Data, i))
		}
		if err != nil {
			t.Fatal(err)
		}
		writeTime += ask(t, w, win, `//painting[/name{val}]`, nil)
	}
	readTime += <-done
	pinned.Release()
	compactFully(t, w, in)

	u := w.ledger.Snapshot()
	out := fmt.Sprintf("%sreads %v, writes %v", u, readTime, writeTime)
	for _, typ := range u.InstanceTypes() {
		out += fmt.Sprintf(", %s %v s", typ, u.InstanceSeconds(typ))
	}
	return out
}

// ask runs one query through the processor's steps 9-15 on in, at view (the
// version current at admission when nil), and returns its modeled response
// time. It may run on any goroutine: it fails the test with Error.
func ask(t *testing.T, w *Warehouse, in *ec2.Instance, text string, view *mutate.View) time.Duration {
	body, _ := json.Marshal(queryMessage{ID: w.nextQueryID(), Query: text, Strategy: w.Strategy.Name()})
	resp, stats := w.answerQuery(in, string(body), nil, view)
	if resp.Error != "" {
		t.Errorf("%s: %s", text, resp.Error)
	}
	return stats.ResponseTime
}
