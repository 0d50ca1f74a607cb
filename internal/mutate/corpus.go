// Package mutate turns the paper's write-once warehouse into a live,
// mutable corpus: atomic document re-index, versioned snapshot reads, and
// LSM-style delta buffering with background compaction.
//
// Every mutation — insert, update, remove — lands in an in-memory
// versioned write buffer (kv.Delta) instead of the billed store, under one
// monotonically bumped corpus version per mutation. Queries pin the
// current version at admission and read a consistent snapshot: each
// look-up captures its keys' buffer overlays before fetching, replacement
// contributions supersede main-store items, and removals are subtracted
// from shared cached postings at decode time via per-version tombstones
// (idblock.MergeTombstones).
//
// A compactor folds buffered entries at or below the fold horizon — the
// minimum pinned version — into the main store in group-committed batches
// of deletes and puts packed to the store's batch limit, exactly the
// amortization the bulk loader exploits. Items are the byte-identical content-derived items
// every other write path generates, so a fully folded store is
// indistinguishable from a from-scratch build of the same corpus: that is
// the invariant the chaos differential and the snapshot property tests
// pin.
package mutate

import (
	"bytes"
	"sync"

	"repro/internal/cloud/kv"
	"repro/internal/index"
	"repro/internal/obs"
)

// Corpus is the mutable-warehouse state machine: the version counter, the
// per-document manifests, the write buffer, pinned read views, and
// retained document snapshots. Safe for concurrent use; one compaction
// runs at a time.
type Corpus struct {
	store kv.Store
	lim   kv.Limits
	delta *kv.Delta
	met   metrics

	mu        sync.Mutex
	version   uint64
	manifests map[string]*manifest
	docs      map[string][]docVersion
	pins      map[uint64]int
	mutations int64 // mutations since the last compaction

	// compactMu serializes compactions; reads proceed concurrently.
	compactMu sync.Mutex
}

// manifest records one document's full current contribution to the index:
// the exact store items, per table and hash key. It is what makes update
// and remove exactly-once — the items to supersede come from here, never
// from a re-extraction of whatever happens to be in the file store.
type manifest struct {
	ver   uint64
	items map[string]map[string][]kv.Item
}

// docVersion retains one version of a document's content so pinned views
// can evaluate queries against superseded or deleted documents. Retained
// bytes live in the warehouse's memory (the same memtable the delta
// models) and are trimmed as the fold horizon passes them.
type docVersion struct {
	ver     uint64
	data    []byte
	present bool
}

type metrics struct {
	folds    *obs.Counter
	items    *obs.Counter
	deletes  *obs.Counter
	requests *obs.Counter
	bytes    *obs.Counter
	applies  *obs.Counter
	removes  *obs.Counter
}

// Options configures a Corpus.
type Options struct {
	// Obs receives the index.compact.* counters; nil uses a private
	// registry.
	Obs *obs.Registry
}

// NewCorpus wraps a store (typically the retry/chaos stack) as a
// mutable corpus.
func NewCorpus(store kv.Store, opts Options) *Corpus {
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Corpus{
		store: store,
		lim:   store.Limits(),
		delta: kv.NewDelta(),
		met: metrics{
			folds:    reg.Counter("index.compact.folds"),
			items:    reg.Counter("index.compact.items"),
			deletes:  reg.Counter("index.compact.deletes"),
			requests: reg.Counter("index.compact.requests"),
			bytes:    reg.Counter("index.compact.bytes"),
			applies:  reg.Counter("index.mutate.applies"),
			removes:  reg.Counter("index.mutate.removes"),
		},
		manifests: map[string]*manifest{},
		docs:      map[string][]docVersion{},
		pins:      map[uint64]int{},
	}
}

// Version returns the current corpus version.
func (c *Corpus) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// ApplyResult reports one Apply.
type ApplyResult struct {
	Version uint64
	Changed bool
	Items   int   // buffered store items now carrying the document
	Bytes   int64 // their payload bytes
}

// Apply makes ex (plus the document content it was extracted from) the
// document's indexed state, as one atomic version bump: readers pinned
// before the bump see the old contribution everywhere, readers pinned
// after see the new one everywhere. Re-applying an identical extraction is
// a no-op — at-least-once delivery of an update converges without a new
// version, which is what makes a crashed-and-rerun UpdateDocument land on
// the byte-identical state of a clean one.
func (c *Corpus) Apply(ex *index.Extraction, docBytes []byte) ApplyResult {
	newItems := index.ExtractionItems(c.lim, ex)
	uri := ex.URI
	res := ApplyResult{}
	for _, byKey := range newItems {
		for _, items := range byKey {
			res.Items += len(items)
			for _, it := range items {
				res.Bytes += it.Size()
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.manifests[uri]
	sameItems := old != nil && manifestEqual(old.items, newItems)
	sameDoc := false
	if hist := c.docs[uri]; len(hist) > 0 {
		last := hist[len(hist)-1]
		sameDoc = last.present && bytes.Equal(last.data, docBytes)
	}
	if sameItems && sameDoc {
		res.Version = c.version
		return res
	}
	ver := c.version + 1
	if old != nil {
		// Tombstone every key the old contribution touched that the new
		// one no longer does, retaining the superseded items.
		for table, byKey := range old.items {
			for key, items := range byKey {
				if _, ok := newItems[table][key]; !ok {
					c.delta.Tombstone(table, key, uri, ver, items)
				}
			}
		}
	}
	for table, byKey := range newItems {
		for key, items := range byKey {
			if old != nil && itemsEqual(old.items[table][key], items) {
				// Identical contribution: whatever state carries it —
				// a live buffer entry or the folded store — is already
				// right, and skipping the re-put keeps caches hot and
				// the compactor idle for unchanged keys.
				continue
			}
			c.delta.Put(table, key, uri, ver, items)
		}
	}
	c.manifests[uri] = &manifest{ver: ver, items: newItems}
	c.docs[uri] = append(c.docs[uri], docVersion{ver: ver, data: docBytes, present: true})
	c.version = ver
	c.mutations++
	c.met.applies.Inc()
	res.Version = ver
	res.Changed = true
	return res
}

// Remove tombstones the document's entire contribution and retires its
// content, as one version bump. Removing an unknown document is a no-op.
func (c *Corpus) Remove(uri string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.manifests[uri]
	if old == nil {
		return c.version, false
	}
	ver := c.version + 1
	for table, byKey := range old.items {
		for key, items := range byKey {
			c.delta.Tombstone(table, key, uri, ver, items)
		}
	}
	delete(c.manifests, uri)
	c.docs[uri] = append(c.docs[uri], docVersion{ver: ver, present: false})
	c.version = ver
	c.mutations++
	c.met.removes.Inc()
	return ver, true
}

// MutationsSinceCompact returns the number of version bumps since the last
// compaction, the trigger for Config.CompactEveryDocs.
func (c *Corpus) MutationsSinceCompact() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutations
}

// BufferedEntries returns the live overlay entry count.
func (c *Corpus) BufferedEntries() int {
	return c.delta.Len()
}

// URIs returns the documents present at the given version, sorted.
func (c *Corpus) URIs(ver uint64) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for uri, hist := range c.docs {
		if dv := latestDoc(hist, ver); dv != nil && dv.present {
			out = append(out, uri)
		}
	}
	sortStrings(out)
	return out
}

// DocState resolves a document at a version: (data, present). A present
// document at its newest version returns nil data — the caller reads the
// file store, keeping the billed fetch path — while superseded versions
// return the retained snapshot bytes.
func (c *Corpus) DocState(uri string, ver uint64) (data []byte, present bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hist := c.docs[uri]
	dv := latestDoc(hist, ver)
	if dv == nil {
		// Never tracked: defer to the file store (non-mutable history).
		return nil, true
	}
	if !dv.present {
		return nil, false
	}
	if dv.ver == hist[len(hist)-1].ver {
		return nil, true // current: read the file store
	}
	return dv.data, true
}

// latestDoc returns the newest history entry at or below ver, or nil.
func latestDoc(hist []docVersion, ver uint64) *docVersion {
	var out *docVersion
	for i := range hist {
		if hist[i].ver <= ver {
			out = &hist[i]
		}
	}
	return out
}

// Pin pins the current version and returns the read view. Views must be
// released; an unreleased view blocks the fold horizon forever.
func (c *Corpus) Pin() *View {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pins[c.version]++
	return &View{c: c, ver: c.version}
}

// horizonLocked computes the fold horizon: nothing newer than the oldest
// pinned version may fold, so every live view keeps reading a consistent
// snapshot.
func (c *Corpus) horizonLocked() uint64 {
	h := c.version
	for v := range c.pins {
		if v < h {
			h = v
		}
	}
	return h
}

// View is a pinned snapshot. It implements index.ReadView.
type View struct {
	c    *Corpus
	ver  uint64
	once sync.Once
}

// Version returns the pinned corpus version.
func (v *View) Version() uint64 { return v.ver }

// Capture returns the write-buffer overlays of the keys at the pinned
// version (index.ReadView).
func (v *View) Capture(table string, keys []string) map[string]kv.Overlay {
	return v.c.delta.Capture(table, keys, v.ver)
}

// DocState resolves a document at the pinned version; see Corpus.DocState.
func (v *View) DocState(uri string) ([]byte, bool) {
	return v.c.DocState(uri, v.ver)
}

// Release unpins the view, letting the fold horizon advance past it.
// Releasing twice is safe.
func (v *View) Release() {
	v.once.Do(func() {
		v.c.mu.Lock()
		defer v.c.mu.Unlock()
		if n := v.c.pins[v.ver]; n <= 1 {
			delete(v.c.pins, v.ver)
		} else {
			v.c.pins[v.ver] = n - 1
		}
	})
}

// manifestEqual reports whether two manifests hold byte-identical items.
func manifestEqual(a, b map[string]map[string][]kv.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for table, ak := range a {
		bk, ok := b[table]
		if !ok || len(ak) != len(bk) {
			return false
		}
		for key, items := range ak {
			if !itemsEqual(items, bk[key]) {
				return false
			}
		}
	}
	return true
}

// itemsEqual compares item slices byte for byte, order included (item
// generation is deterministic, so order is content).
func itemsEqual(a, b []kv.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !itemEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func itemEqual(a, b kv.Item) bool {
	if a.HashKey != b.HashKey || a.RangeKey != b.RangeKey || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i].Name != b.Attrs[i].Name || len(a.Attrs[i].Values) != len(b.Attrs[i].Values) {
			return false
		}
		for j := range a.Attrs[i].Values {
			if !bytes.Equal(a.Attrs[i].Values[j], b.Attrs[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
