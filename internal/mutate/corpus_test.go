package mutate

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func extractDoc(t *testing.T, opts index.Options, uri string, data []byte) *index.Extraction {
	t.Helper()
	doc, err := xmltree.Parse(uri, data)
	if err != nil {
		t.Fatal(err)
	}
	return index.Extract(index.TwoLUPI, doc, opts)
}

func newTestStore(t *testing.T) kv.Store {
	t.Helper()
	store := dynamodb.New(meter.NewLedger())
	if err := index.CreateTables(store, index.TwoLUPI); err != nil {
		t.Fatal(err)
	}
	return store
}

func dump(t *testing.T, store kv.Store) map[string][]string {
	t.Helper()
	d := kv.AsDumper(store)
	if d == nil {
		t.Fatal("store is not dumpable")
	}
	out := map[string][]string{}
	for _, tbl := range store.Tables() {
		for _, it := range d.DumpTable(tbl) {
			line := it.HashKey + "\x00" + it.RangeKey
			for _, a := range it.Attrs {
				line += "\x00" + a.Name
				for _, v := range a.Values {
					line += "\x00" + string(v)
				}
			}
			out[tbl] = append(out[tbl], line)
		}
	}
	return out
}

func corpusDocs(t *testing.T, n int) []xmark.Doc {
	t.Helper()
	return xmark.Generate(xmark.Config{Seed: 11, Docs: n, TargetDocBytes: 4 << 10})
}

// mutateDoc inserts a child element right after the root opening tag —
// a structure- and content-visible edit that works on every document
// class the generator produces.
func mutateDoc(t *testing.T, data []byte) []byte {
	t.Helper()
	i := strings.IndexByte(string(data), '>')
	if i < 0 {
		t.Fatal("document has no root element")
	}
	mod := string(data[:i+1]) + "<note>edited</note>" + string(data[i+1:])
	return []byte(mod)
}

// A fully compacted mutable corpus — including updates and removals along
// the way — must leave the main store byte-identical to a from-scratch
// direct-write build of the surviving content. Content-derived range keys
// make both paths write the same items; the diff-based fold must delete
// exactly the superseded ones.
func TestCompactedStoreMatchesDirectBuild(t *testing.T) {
	docs := corpusDocs(t, 8)
	store := newTestStore(t)
	opts := index.OptionsFor(store)
	c := NewCorpus(store, Options{})

	// Insert all, compacting midway so later mutations diff against a
	// partially folded store.
	for i, d := range docs {
		res := c.Apply(extractDoc(t, opts, d.URI, d.Data), d.Data)
		if !res.Changed {
			t.Fatalf("doc %d: fresh apply reported unchanged", i)
		}
		if i == 4 {
			if _, err := c.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Update half with modified content, remove two.
	final := map[string][]byte{}
	for _, d := range docs {
		final[d.URI] = d.Data
	}
	for i, d := range docs {
		switch {
		case i%3 == 0:
			mod := mutateDoc(t, d.Data)
			if res := c.Apply(extractDoc(t, opts, d.URI, mod), mod); !res.Changed {
				t.Fatalf("update of %s was a no-op", d.URI)
			}
			final[d.URI] = mod
		case i%3 == 1 && i < 4:
			if _, ok := c.Remove(d.URI); !ok {
				t.Fatalf("remove %s: not present", d.URI)
			}
			delete(final, d.URI)
		}
	}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := c.BufferedEntries(); got != 0 {
		t.Fatalf("after full compaction, %d buffer entries remain", got)
	}

	direct := newTestStore(t)
	for _, d := range docs {
		data, ok := final[d.URI]
		if !ok {
			continue
		}
		ex := extractDoc(t, opts, d.URI, data)
		if _, _, err := index.WriteExtraction(direct, ex); err != nil {
			t.Fatal(err)
		}
	}
	got, want := dump(t, store), dump(t, direct)
	for tbl := range want {
		if len(got[tbl]) != len(want[tbl]) {
			t.Fatalf("table %s: %d items, want %d", tbl, len(got[tbl]), len(want[tbl]))
		}
		for i := range want[tbl] {
			if got[tbl][i] != want[tbl][i] {
				t.Fatalf("table %s item %d differs:\n got %q\nwant %q", tbl, i, got[tbl][i], want[tbl][i])
			}
		}
	}
}

// Re-applying an identical extraction — a redelivered update task — must
// not bump the version or dirty the buffer.
func TestApplyIdempotent(t *testing.T) {
	docs := corpusDocs(t, 2)
	store := newTestStore(t)
	opts := index.OptionsFor(store)
	c := NewCorpus(store, Options{})

	ex := extractDoc(t, opts, docs[0].URI, docs[0].Data)
	r1 := c.Apply(ex, docs[0].Data)
	entries := c.BufferedEntries()
	r2 := c.Apply(extractDoc(t, opts, docs[0].URI, docs[0].Data), docs[0].Data)
	if r2.Changed {
		t.Error("identical re-apply reported a change")
	}
	if r2.Version != r1.Version || c.Version() != r1.Version {
		t.Errorf("re-apply moved version: %d -> %d", r1.Version, r2.Version)
	}
	if got := c.BufferedEntries(); got != entries {
		t.Errorf("re-apply changed buffer: %d -> %d entries", entries, got)
	}
	if _, ok := c.Remove("no-such-doc"); ok {
		t.Error("removing an unknown document reported a change")
	}
}

// Pinned views keep seeing their snapshot while the corpus mutates, and
// the fold horizon must not pass the oldest pin.
func TestSnapshotPinsAndHorizon(t *testing.T) {
	docs := corpusDocs(t, 3)
	store := newTestStore(t)
	opts := index.OptionsFor(store)
	c := NewCorpus(store, Options{})

	for _, d := range docs {
		c.Apply(extractDoc(t, opts, d.URI, d.Data), d.Data)
	}
	v3 := c.Pin()
	defer v3.Release()
	if v3.Version() != 3 {
		t.Fatalf("pinned version %d, want 3", v3.Version())
	}
	if _, removed := c.Remove(docs[0].URI); !removed {
		t.Fatal("remove failed")
	}
	v4 := c.Pin()
	defer v4.Release()

	if got := c.URIs(v3.Version()); len(got) != 3 {
		t.Errorf("version 3 sees %d docs, want 3", len(got))
	}
	if got := c.URIs(v4.Version()); len(got) != 2 {
		t.Errorf("version 4 sees %d docs, want 2", len(got))
	}

	// The pin at version 3 holds the horizon: the removal must not fold.
	st, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Horizon != 3 {
		t.Errorf("horizon %d, want 3", st.Horizon)
	}
	if c.BufferedEntries() == 0 {
		t.Error("removal folded while a view was pinned below it")
	}
	// Overlays at version 4 must still carry the removal's tombstones.
	tomb := false
	for _, tbl := range store.Tables() {
		var keys []string
		for _, it := range kv.AsDumper(store).DumpTable(tbl) {
			keys = append(keys, it.HashKey)
		}
		for _, ov := range v4.Capture(tbl, keys) {
			if len(ov.Tombstones) > 0 {
				tomb = true
			}
		}
	}
	if !tomb {
		t.Error("no tombstone visible at version 4 after remove")
	}

	v3.Release()
	v3.Release() // double release must be safe
	if st, err = c.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Horizon != 4 || c.BufferedEntries() != 0 {
		t.Errorf("after release: horizon %d (want 4), %d entries (want 0)", st.Horizon, c.BufferedEntries())
	}
	if st.Deletes == 0 {
		t.Error("folding a removal issued no deletes")
	}
}

// Document content resolution: the current version reads the file store,
// superseded versions read retained bytes, removed versions are absent —
// and compaction trims history the horizon passed.
func TestDocStateRetention(t *testing.T) {
	docs := corpusDocs(t, 1)
	store := newTestStore(t)
	opts := index.OptionsFor(store)
	c := NewCorpus(store, Options{})

	orig := docs[0].Data
	c.Apply(extractDoc(t, opts, docs[0].URI, orig), orig)
	v1 := c.Pin()
	defer v1.Release()

	mod := mutateDoc(t, orig)
	if res := c.Apply(extractDoc(t, opts, docs[0].URI, mod), mod); !res.Changed {
		t.Fatal("update was a no-op")
	}

	if data, present := c.DocState(docs[0].URI, v1.Version()); !present || string(data) != string(orig) {
		t.Error("pinned view does not see retained original bytes")
	}
	if data, present := c.DocState(docs[0].URI, c.Version()); !present || data != nil {
		t.Error("current version should read the file store (nil data, present)")
	}
	if _, present := c.DocState("never-seen", 1); !present {
		t.Error("untracked document must defer to the file store as present")
	}

	v1.Release()
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if data, present := c.DocState(docs[0].URI, 1); !present || data != nil {
		t.Error("after trim, version 1 resolves to the newest surviving entry")
	}

	c.Remove(docs[0].URI)
	if _, present := c.DocState(docs[0].URI, c.Version()); present {
		t.Error("removed document still present at the removal version")
	}
}

// tallyStore counts, per table, the items a store was asked to put and the
// keys it was asked to delete.
type tallyStore struct {
	kv.Store
	puts, dels map[string]int
}

func (s *tallyStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	s.puts[table] += len(items)
	return s.Store.BatchPut(table, items)
}

func (s *tallyStore) BatchDelete(table string, keys []kv.Key) (time.Duration, error) {
	s.dels[table] += len(keys)
	return s.Store.BatchDelete(table, keys)
}

// A compaction pass must batch its deletes and its puts to the store's
// batch limit: requests, not items, are what the bill charges. Per table a
// pass issues exactly ⌈puts/limit⌉ + ⌈deletes/limit⌉ requests.
func TestCompactGroupCommits(t *testing.T) {
	docs := corpusDocs(t, 12)
	ledger := meter.NewLedger()
	base := dynamodb.New(ledger)
	if err := index.CreateTables(base, index.TwoLUPI); err != nil {
		t.Fatal(err)
	}
	opts := index.OptionsFor(base)
	lim := base.Limits().BatchPutItems
	ts := &tallyStore{Store: base}
	c := NewCorpus(ts, Options{})
	for _, d := range docs {
		c.Apply(extractDoc(t, opts, d.URI, d.Data), d.Data)
	}
	ceil := func(n int) int { return (n + lim - 1) / lim }
	// pass runs one compaction through a fresh tally and checks its
	// request count against it and against the ledger.
	pass := func(name string) CompactStats {
		t.Helper()
		ts.puts, ts.dels = map[string]int{}, map[string]int{}
		before := ledger.Snapshot()
		st, err := c.Compact()
		if err != nil {
			t.Fatal(err)
		}
		want, puts, dels := 0, 0, 0
		for _, tbl := range base.Tables() {
			want += ceil(ts.puts[tbl]) + ceil(ts.dels[tbl])
			puts += ts.puts[tbl]
			dels += ts.dels[tbl]
		}
		if st.Puts != puts || st.Deletes != dels || st.Requests != want {
			t.Errorf("%s: %+v, want %d puts, %d deletes in %d requests", name, st, puts, dels, want)
		}
		if got := ledger.Snapshot().Sub(before).Get("dynamodb", "put"); got.Calls != int64(want) || got.Units != int64(puts+dels) {
			t.Errorf("%s: ledger billed %+v, want %d requests of %d units", name, got, want, puts+dels)
		}
		if st.Time <= 0 {
			t.Errorf("%s: compaction reported no modeled store time", name)
		}
		return st
	}
	if st := pass("inserts"); st.Puts <= lim*len(base.Tables()) {
		t.Fatalf("inserts: %d puts do not fill a batch per table", st.Puts)
	}
	for i, d := range docs {
		switch i % 4 {
		case 0:
			mod := mutateDoc(t, d.Data)
			c.Apply(extractDoc(t, opts, d.URI, mod), mod)
		case 1:
			c.Remove(d.URI)
		}
	}
	if st := pass("updates and removes"); st.Deletes <= lim*len(base.Tables()) || st.Puts == 0 {
		t.Fatalf("updates and removes: %d deletes and %d puts do not fill a delete batch per table", st.Deletes, st.Puts)
	}
}
