package index

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// extractCorpus parses and extracts a slice of generated documents.
func extractCorpus(t *testing.T, s Strategy, store kv.Store, docs []xmark.Doc) []*Extraction {
	t.Helper()
	opts := OptionsFor(store)
	exs := make([]*Extraction, len(docs))
	for i, gd := range docs {
		d := parseDoc(t, gd.URI, string(gd.Data))
		exs[i] = Extract(s, d, opts)
	}
	return exs
}

func testCorpus() []xmark.Doc {
	return xmark.Generate(xmark.Config{Docs: 24, TargetDocBytes: 2 << 10, Seed: 7})
}

// recordingStore sums the modeled durations of the BatchPuts that pass
// through it, so tests can check pro-rata attribution against the truth.
type recordingStore struct {
	kv.Store
	putTime  time.Duration
	putCalls int
}

func (r *recordingStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	d, err := r.Store.BatchPut(table, items)
	if err == nil {
		r.putTime += d
		r.putCalls++
	}
	return d, err
}

// TestBulkLoaderMatchesWriteExtraction is the core equivalence property:
// for every strategy, bulk loading a corpus leaves the store byte-identical
// to per-document WriteExtraction, with identical aggregate entries, items
// and bytes, and with per-document attribution that sums exactly to the
// totals (requests to the call count, upload shares to the modeled time).
func TestBulkLoaderMatchesWriteExtraction(t *testing.T) {
	docs := testCorpus()
	for _, s := range All() {
		t.Run(s.Name(), func(t *testing.T) {
			perDoc := newStore(t, s)
			exs := extractCorpus(t, s, perDoc, docs)
			var want LoadStats
			for _, ex := range exs {
				_, st, err := WriteExtraction(perDoc, ex)
				if err != nil {
					t.Fatal(err)
				}
				want.Entries += st.Entries
				want.Items += st.Items
				want.Requests += st.Requests
				want.Bytes += st.Bytes
			}

			bulkBase := newStore(t, s)
			bulk := &recordingStore{Store: bulkBase}
			loader := NewBulkLoader(bulk, BulkOptions{})
			var done []DocLoad
			for _, ex := range exs {
				dls, err := loader.Add(ex)
				if err != nil {
					t.Fatal(err)
				}
				done = append(done, dls...)
			}
			dls, err := loader.Close()
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, dls...)

			if len(done) != len(exs) {
				t.Fatalf("released %d docs, want %d", len(done), len(exs))
			}
			var got LoadStats
			var upload time.Duration
			for i, dl := range done {
				if dl.URI != exs[i].URI {
					t.Fatalf("doc %d released as %q, want %q (FIFO order)", i, dl.URI, exs[i].URI)
				}
				got.Entries += dl.Stats.Entries
				got.Items += dl.Stats.Items
				got.Requests += dl.Stats.Requests
				got.Bytes += dl.Stats.Bytes
				upload += dl.Upload
			}
			if got.Entries != want.Entries || got.Items != want.Items || got.Bytes != want.Bytes {
				t.Errorf("bulk stats %+v, per-doc %+v", got, want)
			}
			if got.Requests != bulk.putCalls {
				t.Errorf("attributed requests %d, issued %d", got.Requests, bulk.putCalls)
			}
			if got.Requests >= want.Requests {
				t.Errorf("bulk requests %d not below per-doc %d", got.Requests, want.Requests)
			}
			if upload != bulk.putTime {
				t.Errorf("summed upload shares %v != modeled put time %v", upload, bulk.putTime)
			}

			for _, tbl := range s.Tables() {
				a := perDoc.(*kv.MemStore).DumpTable(tbl)
				b := bulkBase.(*kv.MemStore).DumpTable(tbl)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("table %s differs between per-doc and bulk load", tbl)
				}
			}
		})
	}
}

// TestBulkLoaderRequestFloor checks that bulk loading packs every batch
// full: the request count hits the per-table floor of ceil(items/limit).
func TestBulkLoaderRequestFloor(t *testing.T) {
	docs := testCorpus()
	for _, s := range All() {
		store := newStore(t, s)
		exs := extractCorpus(t, s, store, docs)
		loader := NewBulkLoader(store, BulkOptions{})
		perTable := make(map[string]int)
		requests := 0
		for _, ex := range exs {
			dls, err := loader.Add(ex)
			if err != nil {
				t.Fatal(err)
			}
			requests += sumRequests(dls)
			budget := itemBudgetFor(store.Limits())
			for _, tbl := range sortedTables(ex) {
				for _, e := range ex.Tables[tbl] {
					perTable[tbl] += len(entryItems(ex.URI, tbl, e, budget))
				}
			}
		}
		dls, err := loader.Close()
		if err != nil {
			t.Fatal(err)
		}
		requests += sumRequests(dls)
		limit := store.Limits().BatchPutItems
		floor := 0
		for _, n := range perTable {
			floor += (n + limit - 1) / limit
		}
		if requests != floor {
			t.Errorf("%s: requests %d, want packing floor %d", s.Name(), requests, floor)
		}
	}
}

// sumRequests adds up the batch requests attributed to released documents.
func sumRequests(dls []DocLoad) int {
	n := 0
	for _, dl := range dls {
		n += dl.Stats.Requests
	}
	return n
}

// TestBulkLoaderSmallFlushAndPending exercises a small batch limit, so that
// batches fill mid-document, and the pending/release bookkeeping.
func TestBulkLoaderSmallFlushAndPending(t *testing.T) {
	docs := testCorpus()[:6]
	store := kv.NewMemStore(kv.Config{
		Backend: dynamodb.Backend,
		Limits: kv.Limits{
			MaxItemBytes:   dynamodb.MaxItemBytes,
			MaxValueBytes:  dynamodb.MaxItemBytes,
			BatchPutItems:  3,
			BatchGetKeys:   100,
			SupportsBinary: true,
		},
		Perf:   dynamodb.DefaultPerf(),
		Ledger: meter.NewLedger(),
	})
	if err := CreateTables(store, LU); err != nil {
		t.Fatal(err)
	}
	exs := extractCorpus(t, LU, store, docs)
	loader := NewBulkLoader(store, BulkOptions{})
	released := 0
	for _, ex := range exs {
		dls, err := loader.Add(ex)
		if err != nil {
			t.Fatal(err)
		}
		released += len(dls)
		if released+len(loader.fifo) != 0 && released+len(loader.fifo) > len(exs) {
			t.Fatalf("released %d + pending %d exceeds added docs", released, len(loader.fifo))
		}
	}
	dls, err := loader.Close()
	if err != nil {
		t.Fatal(err)
	}
	released += len(dls)
	if released != len(exs) || len(loader.fifo) != 0 {
		t.Fatalf("released %d (pending %d), want all %d", released, len(loader.fifo), len(exs))
	}
	if _, err := loader.Add(exs[0]); !errors.Is(err, ErrLoaderClosed) {
		t.Errorf("Add after Close = %v, want ErrLoaderClosed", err)
	}
}

// TestBulkLoaderInvalidatesCacheOnFlush: a successful bulk flush must
// invalidate the cached postings of every key it wrote, so the next read
// through the cache sees the bulk-loaded document beside the earlier one.
func TestBulkLoaderInvalidatesCacheOnFlush(t *testing.T) {
	store := newStore(t, LU)
	exs := extractCorpus(t, LU, store, testCorpus()[:2])
	table := LU.Tables()[0]
	cache := NewPostingCache(1 << 20)
	inFirst := make(map[string]bool)
	for _, e := range exs[0].Tables[table] {
		inFirst[e.Key] = true
	}
	key := ""
	for _, e := range exs[1].Tables[table] {
		if inFirst[e.Key] {
			key = e.Key
			break
		}
	}
	if key == "" {
		t.Fatal("no shared key between the first two documents")
	}
	readThrough := func() map[string]*Posting {
		t.Helper()
		out, _, err := ReadKeys(store, table, []string{key}, URIPosting, false, LookupOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return out[key]
	}
	if _, _, err := WriteExtraction(store, exs[0], cache); err != nil {
		t.Fatal(err)
	}
	readThrough() // warm the entry

	loader := NewBulkLoader(store, BulkOptions{}, cache)
	if _, err := loader.Add(exs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	got := readThrough()
	if got[exs[1].URI] == nil {
		t.Errorf("bulk-loaded write did not invalidate the cached entry of %q", key)
	}
	if got[exs[0].URI] == nil {
		t.Errorf("read after invalidation lost the earlier document")
	}
}

// failingStore fails every BatchPut after the first n.
type failingStore struct {
	kv.Store
	allow int
}

func (f *failingStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	if f.allow <= 0 {
		return 0, fmt.Errorf("injected put failure")
	}
	f.allow--
	return f.Store.BatchPut(table, items)
}

// TestBulkLoaderInvalidatesCacheOnFailedFlush: even when a flush fails
// mid-way, every key of the attempted batch must be invalidated in the
// posting caches — a partially landed batch with a stale cached posting is
// the §5d failure mode cache invalidation exists to prevent.
func TestBulkLoaderInvalidatesCacheOnFailedFlush(t *testing.T) {
	docs := testCorpus()[:4]
	base := newStore(t, LU)
	exs := extractCorpus(t, LU, base, docs)
	store := &failingStore{Store: base, allow: 0}
	cache := NewPostingCache(1 << 20)
	table := LU.Tables()[0]

	// Warm the cache with every key the corpus touches.
	keys := make(map[string]bool)
	for _, ex := range exs {
		for _, e := range ex.Tables[table] {
			keys[e.Key] = true
		}
	}
	for k := range keys {
		cache.put(cacheKey{table: table, key: k, kind: URIPosting}, map[string]*Posting{"x": {URI: "x"}})
	}

	loader := NewBulkLoader(store, BulkOptions{}, cache)
	var flushErr error
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			flushErr = err
			break
		}
	}
	if flushErr == nil {
		if _, err := loader.Flush(); err != nil {
			flushErr = err
		}
	}
	if flushErr == nil {
		t.Fatal("expected an injected flush failure")
	}
	// Every key of the first (failed) batch must be gone from the cache.
	// The failed batch is a prefix of the corpus' items in Add order.
	limit := base.Limits().BatchPutItems
	budget := itemBudgetFor(base.Limits())
	checked := 0
	for _, ex := range exs {
		for _, e := range ex.Tables[table] {
			for range entryItems(ex.URI, table, e, budget) {
				if checked < limit {
					if _, ok := cache.get(cacheKey{table: table, key: e.Key, kind: URIPosting}); ok {
						t.Fatalf("key %q still cached after failed flush", e.Key)
					}
				}
				checked++
			}
		}
	}
	if checked < limit {
		t.Fatalf("corpus too small to fill a batch (%d items)", checked)
	}
}

// TestBulkLoaderRetryIdempotent re-adds the same documents after a failed
// flush (the redelivery path) and checks the store converges to the clean
// result — the composition with PR 2's exactly-once guarantees.
func TestBulkLoaderRetryIdempotent(t *testing.T) {
	docs := testCorpus()[:8]
	clean := newStore(t, LUI)
	exs := extractCorpus(t, LUI, clean, docs)
	for _, ex := range exs {
		if _, _, err := WriteExtraction(clean, ex); err != nil {
			t.Fatal(err)
		}
	}

	base := newStore(t, LUI)
	flaky := &failingStore{Store: base, allow: 2} // fail after two batches land
	loader := NewBulkLoader(flaky, BulkOptions{})
	failed := false
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		if _, err := loader.Close(); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("expected the flaky store to fail a flush")
	}
	// "Redeliver" the whole corpus to a fresh loader on the now-healthy
	// store: idempotent range keys make the rewrite converge.
	flaky.allow = 1 << 30
	retry := NewBulkLoader(flaky, BulkOptions{})
	for _, ex := range exs {
		if _, err := retry.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := retry.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range LUI.Tables() {
		a := clean.(*kv.MemStore).DumpTable(tbl)
		b := base.(*kv.MemStore).DumpTable(tbl)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("table %s did not converge after retry", tbl)
		}
	}
}

// TestBulkLoaderMeteredRequests confirms the ledger sees exactly the bulk
// request count (the quantity the cost model bills).
func TestBulkLoaderMeteredRequests(t *testing.T) {
	docs := testCorpus()
	ledger := meter.NewLedger()
	store := dynamodb.New(ledger)
	if err := CreateTables(store, LU); err != nil {
		t.Fatal(err)
	}
	exs := extractCorpus(t, LU, store, docs)
	loader := NewBulkLoader(store, BulkOptions{})
	requests := 0
	for _, ex := range exs {
		dls, err := loader.Add(ex)
		if err != nil {
			t.Fatal(err)
		}
		requests += sumRequests(dls)
	}
	dls, err := loader.Close()
	if err != nil {
		t.Fatal(err)
	}
	requests += sumRequests(dls)
	billed := ledger.Snapshot().Get(dynamodb.Backend, "put").Calls
	if billed != int64(requests) {
		t.Errorf("ledger billed %d put calls, loader attributes %d", billed, requests)
	}
}

// fuzzSeedDocs parses the documents of the XML scanner's seed corpus that
// the scanner accepts, each under its file name.
func fuzzSeedDocs(f *testing.F) []*xmltree.Document {
	f.Helper()
	dir := filepath.Join("..", "xmltree", "testdata", "fuzz", "FuzzParseDifferential")
	files, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var docs []*xmltree.Document
	for _, fi := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			f.Fatal(err)
		}
		// A seed file is the header line and one []byte("…") line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", fi.Name(), err)
		}
		if d, err := xmltree.Parse(fi.Name()+".xml", []byte(src)); err == nil {
			docs = append(docs, d)
		}
	}
	if len(docs) < 4 {
		f.Fatalf("only %d seed documents parse", len(docs))
	}
	return docs
}

// smallBatchStore is DynamoDB with a batch limit of limit items.
func smallBatchStore(t *testing.T, s Strategy, limit int) *kv.MemStore {
	t.Helper()
	store := kv.NewMemStore(kv.Config{
		Backend: dynamodb.Backend,
		Limits: kv.Limits{
			MaxItemBytes:   dynamodb.MaxItemBytes,
			MaxValueBytes:  dynamodb.MaxItemBytes,
			BatchPutItems:  limit,
			BatchGetKeys:   100,
			SupportsBinary: true,
		},
		Perf:   dynamodb.DefaultPerf(),
		Ledger: meter.NewLedger(),
	})
	if err := CreateTables(store, s); err != nil {
		t.Fatal(err)
	}
	return store
}

// FuzzBulkLoaderMatchesWriteExtraction holds the bulk loader to the
// per-document write path under any batch limit (1 to 30 items), any
// sequence of the scanner's seed documents (repeats included: a reload) and
// any Flush points: after Close every table dumps byte-identical to
// per-document WriteExtraction, and the documents are released in Add
// order.
func FuzzBulkLoaderMatchesWriteExtraction(f *testing.F) {
	docs := fuzzSeedDocs(f)
	f.Add(uint8(0), uint8(24), uint64(0), []byte(nil))
	f.Add(uint8(3), uint8(0), uint64(0), []byte(nil))
	f.Add(uint8(3), uint8(2), uint64(0b1011), []byte{0, 1, 2, 3, 2, 1, 0})
	f.Add(uint8(1), uint8(6), ^uint64(0), []byte{5, 5, 4, 3})
	f.Add(uint8(2), uint8(29), uint64(1<<3), []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, strategy, limit uint8, flushes uint64, picks []byte) {
		s := All()[int(strategy)%len(All())]
		batch := 1 + int(limit)%30
		order := docs
		if len(picks) > 0 {
			order = nil
			for _, p := range picks[:min(len(picks), 32)] {
				order = append(order, docs[int(p)%len(docs)])
			}
		}

		perDoc := smallBatchStore(t, s, batch)
		bulk := smallBatchStore(t, s, batch)
		opts := OptionsFor(perDoc)
		loader := NewBulkLoader(bulk, BulkOptions{})
		var released []string
		for i, d := range order {
			ex := Extract(s, d, opts)
			if _, _, err := WriteExtraction(perDoc, ex); err != nil {
				t.Fatal(err)
			}
			dls, err := loader.Add(ex)
			if err != nil {
				t.Fatal(err)
			}
			if flushes>>(i%64)&1 == 1 {
				more, err := loader.Flush()
				if err != nil {
					t.Fatal(err)
				}
				dls = append(dls, more...)
			}
			for _, dl := range dls {
				released = append(released, dl.URI)
			}
		}
		dls, err := loader.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, dl := range dls {
			released = append(released, dl.URI)
		}
		if len(released) != len(order) {
			t.Fatalf("released %d documents, added %d", len(released), len(order))
		}
		for i, d := range order {
			if released[i] != d.URI {
				t.Fatalf("document %d released as %s, added as %s", i, released[i], d.URI)
			}
		}
		for _, tbl := range s.Tables() {
			if a, b := perDoc.DumpTable(tbl), bulk.DumpTable(tbl); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s, batch limit %d: table %s holds %d items bulk-loaded, %d written per document, or they differ",
					s.Name(), batch, tbl, len(b), len(a))
			}
		}
	})
}

// discardStore takes batches of up to limit items and keeps nothing, so
// allocation and retention tests see the loader alone.
type discardStore struct {
	kv.Store
	limit int
}

func (s discardStore) Limits() kv.Limits {
	return kv.Limits{MaxItemBytes: dynamodb.MaxItemBytes, BatchPutItems: s.limit, SupportsBinary: true}
}

func (discardStore) BatchPut(string, []kv.Item) (time.Duration, error) { return time.Millisecond, nil }

// syntheticExtraction is a one-table extraction of n entries, one value of
// valueBytes each.
func syntheticExtraction(n, valueBytes int) *Extraction {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("k%05d", i), Values: [][]byte{make([]byte, valueBytes)}}
	}
	return &Extraction{URI: "doc.xml", Tables: map[string][]Entry{"t": entries}, Entries: n}
}

// TestBulkLoaderAddAllocsFlat: Add builds a document's items in the buffer
// it ships from, so its allocation count is the same for 10 entries as for
// 1,000 — a few arrays and one range key per table, none per item. Both
// sizes are whole batches, so every Add releases its own document.
func TestBulkLoaderAddAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		loader := NewBulkLoader(discardStore{limit: 5}, BulkOptions{})
		ex := syntheticExtraction(n, 8)
		return testing.AllocsPerRun(50, func() {
			if dls, err := loader.Add(ex); err != nil || len(dls) != 1 {
				t.Fatalf("Add released %d documents (%v), want its own", len(dls), err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("allocations per Add: %v for 10 entries, %v for 1,000", small, large)
	if large > small {
		t.Errorf("Add allocates %v times for 1,000 entries, %v for 10: the count grows with the document", large, small)
	}
}

// TestBulkLoaderDoesNotPinFlushedExtraction: once a document's items are
// flushed the loader keeps nothing of its extraction, however long the
// loader lives. The control keeps a few items of the document buffered
// (a Flush not yet called) and must see the whole extraction retained —
// its items share the document's value array — which shows the measurement
// can fail.
func TestBulkLoaderDoesNotPinFlushedExtraction(t *testing.T) {
	const entries, valueBytes = 256, 16 << 10
	retained := func(flush bool) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		loader := NewBulkLoader(discardStore{limit: 25}, BulkOptions{})
		if _, err := loader.Add(syntheticExtraction(entries, valueBytes)); err != nil {
			t.Fatal(err)
		}
		if flush {
			if dls, err := loader.Flush(); err != nil || len(dls) != 1 {
				t.Fatalf("Flush released %d documents (%v), want 1", len(dls), err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(loader)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	extraction := int64(entries * valueBytes)
	pinned, flushed := retained(false), retained(true)
	t.Logf("bytes retained of a %d-byte extraction: %d buffered, %d flushed", extraction, pinned, flushed)
	if got := pinned; got < extraction/2 {
		t.Fatalf("a loader holding part of a document kept %d of its %d bytes: the measurement no longer sees a pinned extraction", got, extraction)
	}
	if got := flushed; got > extraction/16 {
		t.Fatalf("a loader that flushed the document kept %d of its %d bytes", got, extraction)
	}
}
