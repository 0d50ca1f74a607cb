package core

import (
	"errors"
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/s3"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func TestRemoveDocument(t *testing.T) {
	w := newWarehouse(t, index.TwoLUPI)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)

	before, _, err := w.RunQueryOn(in, `//painting[/name{val}~"Lion"]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 2 {
		t.Fatalf("rows before = %d", len(before.Rows))
	}
	itemsBefore := w.IndexItems()

	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatal(err)
	}
	if w.IndexItems() >= itemsBefore {
		t.Error("index did not shrink")
	}
	after, _, err := w.RunQueryOn(in, `//painting[/name{val}~"Lion"]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 1 || after.Rows[0].URI != "painting-1861-1.xml" {
		t.Errorf("rows after = %v", after.Rows)
	}
	// The file itself is gone.
	if _, _, err := w.files.Get(Bucket, DocKey("delacroix.xml")); !errors.Is(err, s3.ErrNoSuchKey) {
		t.Errorf("file still present: %v", err)
	}
	// The no-index path must also work after removal (it lists the bucket).
	noIdx, _, err := w.RunQueryOn(in, `//painting[/name{val}~"Lion"]`, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(noIdx.Rows) != 1 {
		t.Errorf("no-index rows after = %v", noIdx.Rows)
	}
	// Removing a missing document fails cleanly.
	if err := w.RemoveDocument(in, "delacroix.xml"); err == nil {
		t.Error("double removal succeeded")
	}
}

// A removal interrupted between the two deletion steps — index entries
// gone, file still present (the state a crash leaves, since RemoveDocument
// deletes index entries first) — must stay removable: the file is still
// readable, re-extraction finds nothing to delete (idempotent), and the
// file deletion completes the removal.
func TestRemoveDocumentInterruptedStaysRemovable(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)

	// Reproduce the interrupted state by hand: drop the index entries
	// while keeping the file.
	obj, _, err := w.files.Get(Bucket, DocKey("delacroix.xml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse("delacroix.xml", obj.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := index.DeleteDocument(w.store, w.Strategy, doc, w.indexOptions(), w.cache); err != nil {
		t.Fatal(err)
	}

	// The retried removal completes: idempotent index deletion, then the
	// file goes away.
	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatalf("retried removal: %v", err)
	}
	if _, _, err := w.files.Get(Bucket, DocKey("delacroix.xml")); !errors.Is(err, s3.ErrNoSuchKey) {
		t.Errorf("file still present: %v", err)
	}
	res, _, err := w.RunQueryOn(in, `//painting[/name{val}~"Lion"]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows after interrupted removal = %v", res.Rows)
	}
}

// A transient S3 fault at the start of a removal must leave the warehouse
// untouched — the index is only modified after the document was fetched —
// and the removal must succeed when retried after the fault clears.
func TestRemoveDocumentSurvivesTransientS3Fault(t *testing.T) {
	w, err := New(Config{Strategy: index.LUP, Chaos: &chaos.Plan{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	itemsBefore := w.IndexItems()

	w.ChaosInjector().SetRates(chaos.Rates{S3Transient: 1})
	if err := w.RemoveDocument(in, "delacroix.xml"); !errors.Is(err, s3.ErrTransient) {
		t.Fatalf("removal under S3 fault: %v, want ErrTransient", err)
	}
	if got := w.IndexItems(); got != itemsBefore {
		t.Errorf("failed removal changed the index: %d items, was %d", got, itemsBefore)
	}

	w.ChaosInjector().SetRates(chaos.Rates{})
	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatalf("retried removal: %v", err)
	}
	if w.IndexItems() >= itemsBefore {
		t.Error("index did not shrink after retried removal")
	}
}

// Removal must invalidate the posting cache: a query answered from cache
// before the removal must not resurrect the removed document afterwards.
func TestRemoveDocumentInvalidatesPostingCache(t *testing.T) {
	w, err := New(Config{Strategy: index.LUP, PostingCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)

	const q = `//painting[/name{val}~"Lion"]`
	before, _, err := w.RunQueryOn(in, q, true) // primes the cache
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 2 {
		t.Fatalf("rows before = %d, want 2", len(before.Rows))
	}
	again, _, err := w.RunQueryOn(in, q, true)
	if err != nil {
		t.Fatal(err)
	}
	hits := w.Registry().Counter("index.cache.hits").Value()
	if hits == 0 || len(again.Rows) != 2 {
		t.Fatalf("cache not primed: hits=%d rows=%d", hits, len(again.Rows))
	}

	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatal(err)
	}
	after, _, err := w.RunQueryOn(in, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 1 || after.Rows[0].URI != "painting-1861-1.xml" {
		t.Errorf("stale cache after removal: rows = %v", after.Rows)
	}
}
