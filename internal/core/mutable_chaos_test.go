package core

import (
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/xmark"
)

// This file is the chaos wall of the mutable corpus: a full mutation
// lifecycle — live-worker inserts, synchronous updates, removals, and
// auto- plus forced compaction — executed under aggressive injected faults
// and a worker crash must converge to the byte-identical warehouse of a
// fault-free run, and a fully compacted mutable warehouse must be
// byte-identical to a from-scratch immutable build of its surviving
// content.

// editDoc returns the round-stamped edited content of a document: a child
// element inserted right after the root opening tag, so the edit parses on
// every document class and changes both structure and word postings.
func editDoc(t *testing.T, data []byte, round int) []byte {
	t.Helper()
	i := 0
	for i < len(data) && data[i] != '>' {
		i++
	}
	if i == len(data) {
		t.Fatal("document has no root element")
	}
	note := []byte("<note>edited round" + string(rune('0'+round)) + " zanzibar</note>")
	out := make([]byte, 0, len(data)+len(note))
	out = append(out, data[:i+1]...)
	out = append(out, note...)
	return append(out, data[i+1:]...)
}

// updateWithRetry survives injected transient faults on the update path;
// the crashed attempts it retries over are exactly what the differential
// proves harmless.
func updateWithRetry(t *testing.T, w *Warehouse, in *ec2.Instance, uri string, data []byte) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if err := w.UpdateDocument(in, uri, data); err == nil {
			return
		} else if attempt > 100 {
			t.Fatalf("update %s: %v", uri, err)
		}
	}
}

func removeWithRetry(t *testing.T, w *Warehouse, in *ec2.Instance, uri string) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if err := w.RemoveDocument(in, uri); err == nil {
			return
		} else if attempt > 100 {
			t.Fatalf("remove %s: %v", uri, err)
		}
	}
}

// compactFully drains the write buffer completely, retrying passes that
// die to injected faults.
func compactFully(t *testing.T, w *Warehouse, in *ec2.Instance) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if _, err := w.CompactNow(in); err != nil {
			if attempt > 100 {
				t.Fatalf("compact: %v", err)
			}
			continue
		}
		if w.Corpus().BufferedEntries() == 0 {
			return
		}
		if attempt > 100 {
			t.Fatalf("buffer still holds %d entries after %d passes", w.Corpus().BufferedEntries(), attempt)
		}
	}
}

// mutableLifecycle drives one warehouse through the full mutation story:
// insert the corpus through live workers (crashing one on the chaotic
// side), update every even document, remove every fifth, then compact the
// buffer down to nothing.
func mutableLifecycle(t *testing.T, w *Warehouse, docs []xmark.Doc, crash bool) {
	t.Helper()
	indexLive(t, w, docs, crash, 3)
	in := ec2.Launch(w.ledger, ec2.Large)
	for i, d := range docs {
		if i%2 == 0 {
			updateWithRetry(t, w, in, d.URI, editDoc(t, d.Data, 1))
		}
	}
	for i, d := range docs {
		if i%5 == 1 {
			removeWithRetry(t, w, in, d.URI)
		}
	}
	compactFully(t, w, in)
}

// TestChaosMutableUpdateDifferential is the proof obligation of the
// mutable warehouse: the same mutation sequence executed once cleanly and
// once under aggressive injected faults (plus a crashed worker and the
// retried half-done updates and removals those faults cause) must leave
// both warehouses with byte-identical index stores, identical answers to
// the ten workload queries, an empty dead-letter queue, and an empty
// write buffer — the crashed update converges to the clean one.
func TestChaosMutableUpdateDifferential(t *testing.T) {
	eachStrategy(t, func(t *testing.T, s index.Strategy) {
		seed := chaosSeed(t)
		docs := chaosCorpus(seed)

		clean := steppedWarehouse(t, Config{Strategy: s, MutableCorpus: true, CompactEveryDocs: 7})
		mutableLifecycle(t, clean, docs, false)

		chaotic := steppedWarehouse(t, Config{
			Strategy:         s,
			MutableCorpus:    true,
			CompactEveryDocs: 7,
			Trace:            true,
			Chaos:            &chaos.Plan{Seed: seed, Rates: aggressiveRates()},
		})
		// As in TestChaosDifferentialIndexing: no healthy document dead-letters.
		if err := chaotic.Queues().SetRedrivePolicy(LoaderQueue, LoaderDeadLetters, 200); err != nil {
			t.Fatal(err)
		}
		mutableLifecycle(t, chaotic, docs, true)

		if n, byClass := chaosFaults(chaotic); n == 0 {
			t.Error("chaotic run injected no faults")
		} else {
			t.Logf("chaos: %v", byClass)
			t.Logf("retry: %+v", chaotic.RetryStats())
		}
		for _, w := range []*Warehouse{clean, chaotic} {
			if n := w.Queues().Len(LoaderDeadLetters); n != 0 {
				t.Errorf("dead-letter queue holds %d", n)
			}
			if n := w.Corpus().BufferedEntries(); n != 0 {
				t.Errorf("write buffer still holds %d entries after full compaction", n)
			}
		}

		cleanDump, chaoticDump := dumpStore(t, clean), dumpStore(t, chaotic)
		for _, tbl := range clean.Strategy.Tables() {
			a, b := cleanDump[tbl], chaoticDump[tbl]
			if len(a) != len(b) {
				t.Errorf("%s: clean %d items, chaotic %d", tbl, len(a), len(b))
				continue
			}
			for i := range a {
				if la, lb := itemLine(a[i]), itemLine(b[i]); la != lb {
					t.Errorf("%s item %d differs:\n  clean:   %s\n  chaotic: %s", tbl, i, la, lb)
					break
				}
			}
		}

		chaotic.ChaosInjector().SetRates(chaos.Rates{})
		cleanRows, chaoticRows := runWorkload(t, clean), runWorkload(t, chaotic)
		for name, want := range cleanRows {
			got := chaoticRows[name]
			if len(got) != len(want) {
				t.Errorf("%s: clean %d rows, chaotic %d", name, len(want), len(got))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s row %d: clean %q, chaotic %q", name, i, want[i], got[i])
					break
				}
			}
		}

		// Rebuild equivalence: a from-scratch immutable direct-write build of
		// the surviving content must match the compacted mutable store byte
		// for byte — the compactor's folds and deletes left exactly the items
		// a clean build writes.
		rebuild, err := New(Config{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		var uris []string
		for i, d := range docs {
			if i%5 == 1 {
				continue
			}
			data := d.Data
			if i%2 == 0 {
				data = editDoc(t, d.Data, 1)
			}
			if _, err := rebuild.files.Put(Bucket, DocKey(d.URI), data, nil); err != nil {
				t.Fatal(err)
			}
			uris = append(uris, d.URI)
		}
		if _, err := rebuild.IndexCorpusOn(ec2.LaunchFleet(rebuild.ledger, ec2.Large, 2), uris); err != nil {
			t.Fatal(err)
		}
		rebuildDump := dumpStore(t, rebuild)
		for _, tbl := range clean.Strategy.Tables() {
			a, b := rebuildDump[tbl], cleanDump[tbl]
			if len(a) != len(b) {
				t.Errorf("%s: rebuild %d items, compacted mutable %d", tbl, len(a), len(b))
				continue
			}
			for i := range a {
				if la, lb := itemLine(a[i]), itemLine(b[i]); la != lb {
					t.Errorf("%s item %d: rebuild %s, mutable %s", tbl, i, la, lb)
					break
				}
			}
		}
	})
}
