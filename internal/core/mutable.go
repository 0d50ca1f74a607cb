package core

import (
	"fmt"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// This file is the warehouse-side surface of the mutable corpus
// (Config.MutableCorpus): atomic updates, manifest-driven removal, snapshot
// pinning for queries, and the compaction entry points. Updates and
// removals go through it only: an immutable warehouse, like the paper's,
// only adds documents. The state machine itself lives in internal/mutate.

// Corpus exposes the mutable-corpus state machine, or nil when
// Config.MutableCorpus is off. Tests use it to pin explicit snapshot
// views (Corpus().Pin()) and to inspect buffer occupancy.
func (w *Warehouse) Corpus() *mutate.Corpus { return w.corpus }

// UpdateDocument atomically replaces a document's content and index
// contribution: the new bytes are parsed and extracted on the instance,
// stored in the file store, and applied to the corpus as one version bump —
// a delete+insert over the idempotent write path. Bytes that do not parse
// are rejected before anything is stored. Queries pinned before the bump
// keep answering from the old content; queries admitted after see only the
// new. Re-running a crashed update converges to the byte-identical state of
// a clean one: the file put overwrites, and an identical re-apply is a
// no-op.
//
// Updates require Config.MutableCorpus: without the corpus manifest there
// is no record of the old contribution to supersede, and a crash between
// the delete and the re-index would leak stale postings.
func (w *Warehouse) UpdateDocument(in *ec2.Instance, uri string, data []byte) error {
	if w.corpus == nil {
		return fmt.Errorf("core: updating %s: UpdateDocument requires Config.MutableCorpus", uri)
	}
	sp := w.tracer.Start(obs.SpanIndexDoc)
	sp.SetAttr("uri", uri)
	defer sp.End()
	// Parse before the put: content that does not parse must never replace
	// the stored file the manifest still points at.
	doc, err := xmltree.Parse(uri, data)
	if err != nil {
		sp.SetError(err)
		return err
	}
	ex := index.Extract(w.Strategy, doc, w.indexOptions())
	doc.Release()
	put, err := w.files.Put(Bucket, DocKey(uri), data, nil)
	if err != nil {
		sp.SetError(err)
		return fmt.Errorf("core: updating %s: %w", uri, err)
	}
	compute := in.ComputeDuration(int64(len(data)), w.Perf.ParseBytesPerECUSec) +
		in.ComputeDuration(ex.Bytes, w.Perf.ExtractBytesPerECUSec)
	w.met.indexExtract.ObserveModeled(compute)
	ar := w.corpus.Apply(ex, data)
	in.Run(put + compute)
	sp.SetModeled(put + compute)
	sp.SetAttrInt("version", int64(ar.Version))
	return w.maybeCompact(in)
}

// RemoveDocument drops a document from the warehouse, an extension beyond
// the paper's append-only warehouse. Every key the document contributes to
// is tombstoned in the write buffer as one atomic version bump — no fetch,
// no re-extraction — and its file is deleted; the compaction fold deletes
// its items from the store. Queries pinned before the bump keep seeing the
// document until they drain. Removal is idempotent: re-running a crashed
// removal (index already tombstoned, or file already deleted) converges to
// the same fully removed state, like S3's own delete of a missing key. The
// modeled work is scheduled on the given instance.
//
// Removal requires Config.MutableCorpus, like UpdateDocument: on an
// immutable warehouse it fails before it sends any request.
func (w *Warehouse) RemoveDocument(in *ec2.Instance, uri string) error {
	if w.corpus == nil {
		return fmt.Errorf("core: removing %s: RemoveDocument requires Config.MutableCorpus", uri)
	}
	w.corpus.Remove(uri)
	drop, err := w.files.Delete(Bucket, DocKey(uri))
	if err != nil {
		return fmt.Errorf("core: removing %s: %w", uri, err)
	}
	in.Run(drop)
	return w.maybeCompact(in)
}

// CompactNow runs one compaction pass: the write buffer's entries at or
// below the fold horizon are folded into the main store in group-committed
// batches, and the modeled store time is scheduled on the instance. The
// pass is a no-op (and CompactNow is safe to call) when the corpus is
// immutable or the buffer has nothing foldable.
func (w *Warehouse) CompactNow(in *ec2.Instance) (mutate.CompactStats, error) {
	if w.corpus == nil {
		return mutate.CompactStats{}, nil
	}
	sp := w.tracer.Start(obs.SpanCompact)
	st, err := w.corpus.Compact()
	in.Run(st.Time)
	sp.SetModeled(st.Time)
	sp.SetAttrInt("folds", int64(st.Folds))
	sp.SetAttrInt("puts", int64(st.Puts))
	sp.SetAttrInt("deletes", int64(st.Deletes))
	sp.SetAttrInt("requests", int64(st.Requests))
	sp.SetError(err)
	sp.End()
	return st, err
}

// maybeCompact runs a compaction pass when the mutation count has reached
// Config.CompactEveryDocs.
func (w *Warehouse) maybeCompact(in *ec2.Instance) error {
	if w.corpus == nil || w.compactEvery <= 0 {
		return nil
	}
	if w.corpus.MutationsSinceCompact() < int64(w.compactEvery) {
		return nil
	}
	_, err := w.CompactNow(in)
	return err
}
