package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/s3"
	"repro/internal/index"
)

// mutablePaintings builds a mutable warehouse on cfg, loads the paintings
// corpus into it and folds the load into the store.
func mutablePaintings(t *testing.T, cfg Config) (*Warehouse, *ec2.Instance) {
	t.Helper()
	cfg.MutableCorpus = true
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadPaintings(t, w, ec2.LaunchFleet(w.ledger, ec2.Large, 1))
	in := ec2.Launch(w.ledger, ec2.Large)
	compactFully(t, w, in)
	return w, in
}

// lionRows runs the paintings query that matches two documents, one of
// them delacroix.xml, and returns its URIs.
func lionRows(t *testing.T, w *Warehouse, in *ec2.Instance, useIndex bool) []string {
	t.Helper()
	res, _, err := w.RunQueryOn(in, `//painting[/name{val}~"Lion"]`, useIndex)
	if err != nil {
		t.Fatal(err)
	}
	var uris []string
	for _, r := range res.Rows {
		uris = append(uris, r.URI)
	}
	return uris
}

func TestRemoveDocument(t *testing.T) {
	w, in := mutablePaintings(t, Config{Strategy: index.TwoLUPI})
	if got := lionRows(t, w, in, true); len(got) != 2 {
		t.Fatalf("rows before = %v", got)
	}
	itemsBefore := w.IndexItems()

	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatal(err)
	}
	// The tombstone hides the document at once; the fold deletes its items.
	if got := lionRows(t, w, in, true); len(got) != 1 || got[0] != "painting-1861-1.xml" {
		t.Errorf("rows after removal = %v", got)
	}
	compactFully(t, w, in)
	if w.IndexItems() >= itemsBefore {
		t.Error("index did not shrink")
	}
	if got := lionRows(t, w, in, true); len(got) != 1 || got[0] != "painting-1861-1.xml" {
		t.Errorf("rows after compaction = %v", got)
	}
	// The file itself is gone.
	if _, _, err := w.files.Get(Bucket, DocKey("delacroix.xml")); !errors.Is(err, s3.ErrNoSuchKey) {
		t.Errorf("file still present: %v", err)
	}
	// The no-index path must also work after removal (it lists the bucket).
	if got := lionRows(t, w, in, false); len(got) != 1 {
		t.Errorf("no-index rows after = %v", got)
	}
	// Removing a removed document is a no-op.
	items := w.IndexItems()
	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Errorf("second removal: %v", err)
	}
	compactFully(t, w, in)
	if got := w.IndexItems(); got != items {
		t.Errorf("second removal changed the index: %d items, was %d", got, items)
	}
}

// On an immutable warehouse, which is append-only, RemoveDocument refuses
// before it sends any request: nothing is billed, the file stays and the
// answers do not change.
func TestRemoveDocumentNeedsMutableCorpus(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	loadPaintings(t, w, ec2.LaunchFleet(w.ledger, ec2.Large, 1))
	in := ec2.Launch(w.ledger, ec2.Large)
	before := lionRows(t, w, in, true)
	if len(before) != 2 {
		t.Fatalf("rows before = %v", before)
	}

	usage := w.ledger.Snapshot()
	err := w.RemoveDocument(in, "delacroix.xml")
	if err == nil || !strings.Contains(err.Error(), "RemoveDocument requires Config.MutableCorpus") {
		t.Fatalf("removal from an immutable warehouse: %v", err)
	}
	if got := w.ledger.Snapshot(); got.String() != usage.String() {
		t.Errorf("the refused removal billed %v", got.Sub(usage))
	}
	if _, _, err := w.files.Get(Bucket, DocKey("delacroix.xml")); err != nil {
		t.Errorf("file gone after a refused removal: %v", err)
	}
	if got := lionRows(t, w, in, true); strings.Join(got, ",") != strings.Join(before, ",") {
		t.Errorf("rows after a refused removal = %v, want %v", got, before)
	}
}

// A removal interrupted between its two steps — the document tombstoned,
// its file still present (the state a crash leaves, since RemoveDocument
// tombstones first) — must stay removable: the tombstone is not applied
// twice, and the file deletion completes the removal.
func TestRemoveDocumentInterruptedStaysRemovable(t *testing.T) {
	w, in := mutablePaintings(t, Config{Strategy: index.LUP})
	itemsBefore := w.IndexItems()

	// Reproduce the interrupted state by hand: tombstone the document
	// while keeping the file.
	if _, ok := w.Corpus().Remove("delacroix.xml"); !ok {
		t.Fatal("delacroix.xml was not in the corpus")
	}

	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatalf("retried removal: %v", err)
	}
	if _, _, err := w.files.Get(Bucket, DocKey("delacroix.xml")); !errors.Is(err, s3.ErrNoSuchKey) {
		t.Errorf("file still present: %v", err)
	}
	compactFully(t, w, in)
	if w.IndexItems() >= itemsBefore {
		t.Error("index did not shrink")
	}
	if got := lionRows(t, w, in, true); len(got) != 1 {
		t.Errorf("rows after interrupted removal = %v", got)
	}
}

// A transient S3 fault on a removal's file deletion fails the removal with
// the fault and keeps the file; the removal succeeds when retried after
// the fault clears, and the fold then shrinks the index.
func TestRemoveDocumentSurvivesTransientS3Fault(t *testing.T) {
	w, in := mutablePaintings(t, Config{Strategy: index.LUP, Chaos: &chaos.Plan{Seed: 1}})
	itemsBefore := w.IndexItems()

	w.ChaosInjector().SetRates(chaos.Rates{S3Transient: 1})
	if err := w.RemoveDocument(in, "delacroix.xml"); !errors.Is(err, s3.ErrTransient) {
		t.Fatalf("removal under S3 fault: %v, want ErrTransient", err)
	}
	w.ChaosInjector().SetRates(chaos.Rates{})
	if _, _, err := w.files.Get(Bucket, DocKey("delacroix.xml")); err != nil {
		t.Errorf("file gone after a failed removal: %v", err)
	}

	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatalf("retried removal: %v", err)
	}
	compactFully(t, w, in)
	if w.IndexItems() >= itemsBefore {
		t.Error("index did not shrink after retried removal")
	}
	if got := lionRows(t, w, in, true); len(got) != 1 {
		t.Errorf("rows after retried removal = %v", got)
	}
}

// Removal must keep the posting cache coherent: a query answered from cache
// before the removal must not resurrect the removed document afterwards,
// neither while the tombstone is buffered nor after the fold.
func TestRemoveDocumentInvalidatesPostingCache(t *testing.T) {
	w, in := mutablePaintings(t, Config{Strategy: index.LUP, PostingCacheBytes: 1 << 20})

	if got := lionRows(t, w, in, true); len(got) != 2 { // primes the cache
		t.Fatalf("rows before = %v, want 2", got)
	}
	again := lionRows(t, w, in, true)
	hits := w.Registry().Counter("index.cache.hits").Value()
	if hits == 0 || len(again) != 2 {
		t.Fatalf("cache not primed: hits=%d rows=%v", hits, again)
	}

	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatal(err)
	}
	if got := lionRows(t, w, in, true); len(got) != 1 || got[0] != "painting-1861-1.xml" {
		t.Errorf("stale cache after removal: rows = %v", got)
	}
	compactFully(t, w, in)
	if got := lionRows(t, w, in, true); len(got) != 1 || got[0] != "painting-1861-1.xml" {
		t.Errorf("stale cache after the fold: rows = %v", got)
	}
}
