package index

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// recordingStore sums the modeled durations and counts the calls of the
// reads and puts that pass through it, so tests can check the loader's
// attribution against the truth.
type recordingStore struct {
	kv.Store
	time  time.Duration
	calls int
}

func (r *recordingStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	d, err := r.Store.BatchPut(table, items)
	if err == nil {
		r.time += d
		r.calls++
	}
	return d, err
}

func (r *recordingStore) Read(ctx context.Context, table string, keys []string, visit kv.Visitor) (time.Duration, error) {
	d, err := r.Store.Read(ctx, table, keys, visit)
	if err == nil {
		r.time += d
		r.calls++
	}
	return d, err
}

// bulkLoad adds the extractions to a new loader on store and commits them.
func bulkLoad(t testing.TB, store kv.Store, exs []*Extraction, caches ...*PostingCache) []DocLoad {
	t.Helper()
	loader := NewBulkLoader(store, BulkOptions{}, caches...)
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
	done, err := loader.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(exs) {
		t.Fatalf("released %d docs, want %d", len(done), len(exs))
	}
	for i, dl := range done {
		if dl.URI != exs[i].URI {
			t.Fatalf("doc %d released as %q, want %q (Add order)", i, dl.URI, exs[i].URI)
		}
	}
	return done
}

// checkLayout holds every table of the strategy on got to the bulk layout
// and to want's postings (CheckLayout).
func checkLayout(t testing.TB, s Strategy, got, want kv.Store) {
	t.Helper()
	for _, tbl := range s.Tables() {
		if err := CheckLayout(got.Limits(), tbl, kv.AsDumper(got).DumpTable(tbl), kv.AsDumper(want).DumpTable(tbl)); err != nil {
			t.Errorf("%s table %s: %v", s.Name(), tbl, err)
		}
	}
}

// TestBulkLoaderMatchesWriteExtraction is the core equivalence property:
// for every strategy, bulk loading a corpus leaves the store holding the
// postings per-document WriteExtraction leaves, in the bulk layout
// (CheckLayout), in fewer rows and requests; the per-document attribution
// sums exactly to the totals — entries to the extractions', items and bytes
// to the store's, requests to the calls issued and upload shares to their
// modeled time.
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
			}

			bulkBase := newStore(t, s)
			bulk := &recordingStore{Store: bulkBase}
			var got LoadStats
			var upload time.Duration
			for _, dl := range bulkLoad(t, bulk, exs) {
				got.Entries += dl.Stats.Entries
				got.Items += dl.Stats.Items
				got.Requests += dl.Stats.Requests
				got.Bytes += dl.Stats.Bytes
				upload += dl.Upload
			}
			var rows, bytes int64
			for _, tbl := range s.Tables() {
				rows += bulkBase.ItemCount(tbl)
				bytes += bulkBase.TableBytes(tbl)
			}
			if got.Entries != want.Entries || int64(got.Items) != rows || got.Bytes != bytes {
				t.Errorf("bulk stats %+v; want %d entries, %d items, %d bytes", got, want.Entries, rows, bytes)
			}
			if got.Items >= want.Items {
				t.Errorf("bulk wrote %d items, per-doc %d", got.Items, want.Items)
			}
			if got.Requests != bulk.calls {
				t.Errorf("attributed requests %d, issued %d", got.Requests, bulk.calls)
			}
			if got.Requests >= want.Requests {
				t.Errorf("bulk requests %d not below per-doc %d", got.Requests, want.Requests)
			}
			if upload != bulk.time {
				t.Errorf("summed upload shares %v != modeled read and put time %v", upload, bulk.time)
			}
			checkLayout(t, s, bulkBase, perDoc)
		})
	}
}

// TestBulkLoaderRequestFloor checks that a commit on an empty store issues
// exactly the packing floor: per table, ceil(items/BatchPutItems) puts and
// ceil(keys/BatchGetKeys) reads.
func TestBulkLoaderRequestFloor(t *testing.T) {
	docs := testCorpus()
	for _, s := range All() {
		store := newStore(t, s)
		exs := extractCorpus(t, s, store, docs)
		requests := sumRequests(bulkLoad(t, store, exs))
		lim := store.Limits()
		floor := 0
		for _, tbl := range s.Tables() {
			keys := make(map[string]bool)
			for _, ex := range exs {
				for _, e := range ex.Tables[tbl] {
					keys[e.Key] = true
				}
			}
			items := int(store.ItemCount(tbl))
			floor += (items+lim.BatchPutItems-1)/lim.BatchPutItems + (len(keys)+lim.BatchGetKeys-1)/lim.BatchGetKeys
		}
		if requests != floor {
			t.Errorf("%s: requests %d, want packing floor %d", s.Name(), requests, floor)
		}
	}
}

// sumRequests adds up the requests attributed to released documents.
func sumRequests(dls []DocLoad) int {
	n := 0
	for _, dl := range dls {
		n += dl.Stats.Requests
	}
	return n
}

// TestBulkLoaderSmallFlushAndPending exercises a small batch limit, so that
// a batch fills mid-key, and the release contract: nothing is released
// before Close, everything by it, and Add after Close fails.
func TestBulkLoaderSmallFlushAndPending(t *testing.T) {
	docs := testCorpus()[:6]
	store := smallBatchStore(t, LU, 3)
	perDoc := smallBatchStore(t, LU, 3)
	exs := extractCorpus(t, LU, store, docs)
	for _, ex := range exs {
		if _, _, err := WriteExtraction(perDoc, ex); err != nil {
			t.Fatal(err)
		}
	}
	loader := NewBulkLoader(store, BulkOptions{})
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.ItemCount(LU.Tables()[0]); n != 0 {
		t.Fatalf("%d items landed before Close", n)
	}
	dls, err := loader.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != len(exs) {
		t.Fatalf("released %d, want all %d", len(dls), len(exs))
	}
	if _, err := loader.Add(exs[0]); !errors.Is(err, ErrLoaderClosed) {
		t.Errorf("Add after Close = %v, want ErrLoaderClosed", err)
	}
	checkLayout(t, LU, store, perDoc)
}

// TestBulkLoaderPacksEachKeyOnce: a commit writes one item per key when no
// key's contributions outgrow the budget; its layout depends on the
// document set and not on the Add order; and a URI added twice contributes
// once while both of its loads are released.
func TestBulkLoaderPacksEachKeyOnce(t *testing.T) {
	s := TwoLUPI
	docs := testCorpus()
	forward := newStore(t, s)
	exs := extractCorpus(t, s, forward, docs)
	bulkLoad(t, forward, exs)
	for _, tbl := range s.Tables() {
		keys := make(map[string]bool)
		for _, ex := range exs {
			for _, e := range ex.Tables[tbl] {
				keys[e.Key] = true
			}
		}
		if n := forward.ItemCount(tbl); n != int64(len(keys)) {
			t.Errorf("%s: %d items for %d keys", tbl, n, len(keys))
		}
	}

	// Reversed, with the first document added a second time.
	reversed := newStore(t, s)
	var order []*Extraction
	for i := len(exs) - 1; i >= 0; i-- {
		order = append(order, exs[i])
	}
	order = append(order, exs[0])
	done := bulkLoad(t, reversed, order)
	if last := done[len(done)-1]; last.Stats.Items != 0 || last.Stats.Bytes != 0 {
		t.Errorf("the repeated document was charged %+v, want nothing written", last.Stats)
	}
	for _, tbl := range s.Tables() {
		a, b := kv.AsDumper(forward).DumpTable(tbl), kv.AsDumper(reversed).DumpTable(tbl)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the layout depends on the Add order", tbl)
		}
	}
}

// TestBulkLoaderOversizedContributions: on a store whose item budget is
// smaller than some contributions, those keep the per-document chunk items
// beside the packs, and a second commit of the same documents rewrites
// them in place.
func TestBulkLoaderOversizedContributions(t *testing.T) {
	docs := xmark.Generate(xmark.Config{Docs: 8, TargetDocBytes: 32 << 10, Seed: 3})
	for _, s := range []Strategy{LUP, LUI} {
		limits := func() kv.Limits {
			return kv.Limits{MaxItemBytes: 768, MaxValueBytes: 768, BatchPutItems: 25, BatchGetKeys: 100, SupportsBinary: true}
		}
		newSmall := func() *kv.MemStore {
			store := kv.NewMemStore(kv.Config{Backend: dynamodb.Backend, Limits: limits(), Perf: dynamodb.DefaultPerf(), Ledger: meter.NewLedger()})
			if err := CreateTables(store, s); err != nil {
				t.Fatal(err)
			}
			return store
		}
		perDoc, bulk := newSmall(), newSmall()
		exs := extractCorpus(t, s, perDoc, docs)
		oversized := 0
		for _, ex := range exs {
			if _, _, err := WriteExtraction(perDoc, ex); err != nil {
				t.Fatal(err)
			}
			for _, tbl := range s.Tables() {
				for _, e := range ex.Tables[tbl] {
					if len(entryItems(ex.URI, tbl, e, itemBudgetFor(limits()))) > 1 {
						oversized++
					}
				}
			}
		}
		if oversized == 0 {
			t.Fatalf("%s: no contribution outgrows a %d-byte item", s.Name(), itemBudgetFor(limits()))
		}
		bulkLoad(t, bulk, exs)
		bulkLoad(t, bulk, exs)
		checkLayout(t, s, bulk, perDoc)
	}
}

// TestBulkLoaderInvalidatesCacheOnFlush: a commit must invalidate the
// cached postings of every key it wrote, so the next read through the
// cache sees the bulk-loaded document beside the earlier one.
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
		out, _, err := readPostings(store, table, []string{key}, URIPosting, false, LookupOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return out[key]
	}
	if _, _, err := WriteExtraction(store, exs[0], cache); err != nil {
		t.Fatal(err)
	}
	readThrough() // warm the entry

	bulkLoad(t, store, exs[1:], cache)
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

// TestBulkLoaderInvalidatesCacheOnFailedFlush: even when a commit fails
// mid-way, every key of the commit must be invalidated in the posting
// caches — a partially landed commit with a stale cached posting is the
// failure mode (DESIGN §10) cache invalidation exists to prevent — and no
// document is released.
func TestBulkLoaderInvalidatesCacheOnFailedFlush(t *testing.T) {
	docs := testCorpus()[:4]
	base := newStore(t, LU)
	exs := extractCorpus(t, LU, base, docs)
	store := &failingStore{Store: base, allow: 1}
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
		if _, err := cache.put(cacheKey{table: table, key: k, kind: URIPosting}, uriList([]string{"x"}, nil)); err != nil {
			t.Fatal(err)
		}
	}

	loader := NewBulkLoader(store, BulkOptions{}, cache)
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
	dls, err := loader.Close()
	if err == nil {
		t.Fatal("expected an injected put failure")
	}
	if len(dls) != 0 {
		t.Errorf("a failed commit released %d documents", len(dls))
	}
	if n := base.ItemCount(table); n == 0 || n >= int64(len(keys)) {
		t.Fatalf("%d of %d items landed, want a part", n, len(keys))
	}
	for k := range keys {
		if _, ok := cache.get(cacheKey{table: table, key: k, kind: URIPosting}); ok {
			t.Fatalf("key %q still cached after a failed commit", k)
		}
	}
}

// TestBulkLoaderRetryIdempotent re-adds the same documents after a failed
// commit (the redelivery path), grouped otherwise, and checks the store
// converges to the clean postings without a duplicated contribution — the
// composition with the exactly-once guarantees of DESIGN §10.3.
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
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := loader.Close(); err == nil {
		t.Fatal("expected the flaky store to fail the commit")
	}
	// "Redeliver" the corpus on the now-healthy store in two commits that
	// group the documents otherwise than the failed one did, so that their
	// packs take other range keys: each commit must drop what landed.
	flaky.allow = 1 << 30
	bulkLoad(t, flaky, exs[len(exs)/2:])
	bulkLoad(t, flaky, exs[:len(exs)/2])
	checkLayout(t, LUI, base, clean)
}

// TestBulkLoaderMeteredRequests confirms the ledger sees exactly the
// requests and rows the loader attributes (the quantities the cost model
// bills).
func TestBulkLoaderMeteredRequests(t *testing.T) {
	docs := testCorpus()
	ledger := meter.NewLedger()
	store := dynamodb.New(ledger)
	if err := CreateTables(store, LU); err != nil {
		t.Fatal(err)
	}
	exs := extractCorpus(t, LU, store, docs)
	requests, items := 0, 0
	for _, dl := range bulkLoad(t, store, exs) {
		requests += dl.Stats.Requests
		items += dl.Stats.Items
	}
	u := ledger.Snapshot()
	put, get := u.Get(dynamodb.Backend, "put"), u.Get(dynamodb.Backend, "get")
	if put.Calls+get.Calls != int64(requests) {
		t.Errorf("ledger billed %d put and %d get calls, loader attributes %d", put.Calls, get.Calls, requests)
	}
	if put.Units != int64(items) {
		t.Errorf("ledger billed %d put rows, loader attributes %d", put.Units, items)
	}
}

// TestPerDocumentRewriteKeepsPack: a live worker's per-document re-index of
// a document already in a pack — here the first member of every
// multi-member pack — adds a pack of one beside the pack instead of
// overwriting it, and look-ups still see every member, each URI's
// identifiers once.
func TestPerDocumentRewriteKeepsPack(t *testing.T) {
	s := LUI
	docs := testCorpus()[:6]
	clean := newStore(t, s)
	exs := extractCorpus(t, s, clean, docs)
	for _, ex := range exs {
		if _, _, err := WriteExtraction(clean, ex); err != nil {
			t.Fatal(err)
		}
	}
	bulk := newStore(t, s)
	bulkLoad(t, bulk, exs)
	if _, _, err := WriteExtraction(bulk, exs[0]); err != nil {
		t.Fatal(err)
	}
	table := s.Tables()[0]
	var keys []string
	for _, e := range exs[0].Tables[table] {
		keys = append(keys, e.Key)
	}
	for rest := keys; len(rest) > 0; {
		n := min(100, len(rest))
		want, _, err := readPostings(clean, table, rest[:n], IDPosting, true)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := readPostings(bulk, table, rest[:n], IDPosting, true)
		if err != nil {
			t.Fatal(err)
		}
		for k, ps := range want {
			if len(got[k]) != len(ps) {
				t.Fatalf("key %s: %d URIs after the rewrite, want %d", k, len(got[k]), len(ps))
			}
			for uri, p := range ps {
				w, _ := p.IDSet().All()
				g, _ := got[k][uri].IDSet().All()
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("key %s, %s: identifiers %v, want %v", k, uri, g, w)
				}
			}
		}
		rest = rest[n:]
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
// any commit points (a set bit of commits after a document closes the
// loader and opens a new one): after the last commit every table passes
// CheckLayout against per-document WriteExtraction, and each commit
// releases its documents in Add order.
func FuzzBulkLoaderMatchesWriteExtraction(f *testing.F) {
	docs := fuzzSeedDocs(f)
	f.Add(uint8(0), uint8(24), uint64(0), []byte(nil))
	f.Add(uint8(3), uint8(0), uint64(0), []byte(nil))
	f.Add(uint8(3), uint8(2), uint64(0b1011), []byte{0, 1, 2, 3, 2, 1, 0})
	f.Add(uint8(1), uint8(6), ^uint64(0), []byte{5, 5, 4, 3})
	f.Add(uint8(2), uint8(29), uint64(1<<3), []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, strategy, limit uint8, commits uint64, picks []byte) {
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
		var pending []*Extraction
		for i, d := range order {
			ex := Extract(s, d, opts)
			if _, _, err := WriteExtraction(perDoc, ex); err != nil {
				t.Fatal(err)
			}
			pending = append(pending, ex)
			if commits>>(i%64)&1 == 1 {
				bulkLoad(t, bulk, pending)
				pending = nil
			}
		}
		bulkLoad(t, bulk, pending)
		checkLayout(t, s, bulk, perDoc)
	})
}

// discardStore takes batches of up to limit items, keeps nothing and reads
// every key as empty, so allocation and retention tests see the loader
// alone.
type discardStore struct {
	kv.Store
	limit int
}

func (s discardStore) Limits() kv.Limits {
	return kv.Limits{MaxItemBytes: dynamodb.MaxItemBytes, BatchPutItems: s.limit, BatchGetKeys: 100, SupportsBinary: true}
}

func (discardStore) BatchPut(string, []kv.Item) (time.Duration, error) { return time.Millisecond, nil }

func (discardStore) Read(_ context.Context, _ string, keys []string, visit kv.Visitor) (time.Duration, error) {
	for _, k := range keys {
		visit(k, &kv.Records{})
	}
	return time.Millisecond, nil
}

// syntheticExtraction is a one-table extraction of n entries, one value of
// valueBytes each.
func syntheticExtraction(n, valueBytes int) *Extraction {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("k%05d", i), Values: [][]byte{make([]byte, valueBytes)}}
	}
	return &Extraction{URI: "doc.xml", Tables: map[string][]Entry{"t": entries}, Entries: n}
}

// TestBulkLoaderAddAllocsFlat: Add copies a document's values into chunks
// of the table's memory and appends its contributions to slices the loader
// keeps, so once a key is known an Add of 1,000 entries allocates no more
// than one of 10 but the chunks its larger copy fills: amortized growth of
// a few slices, none per entry. The means come from the runtime's count
// over many Adds, not from testing.AllocsPerRun, which truncates to whole
// allocations: a third of a chunk an Add is not zero, and neither is a
// fraction of an allocation per entry.
func TestBulkLoaderAddAllocsFlat(t *testing.T) {
	const adds = 200
	mean := func(n int) float64 {
		loader := NewBulkLoader(discardStore{limit: 5}, BulkOptions{})
		ex := syntheticExtraction(n, 8)
		if _, err := loader.Add(ex); err != nil { // meets the keys
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range adds {
			if _, err := loader.Add(ex); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / adds
	}
	// chunks is what an Add of n entries takes of new chunks: each of its
	// cuts carves a slab of about an equal share from its own open chunk,
	// which holds a whole number of them.
	chunks := func(n int) float64 {
		slab := (n*contribLen(Entry{Values: [][]byte{make([]byte, 8)}}) + slabsPerDoc - 1) / slabsPerDoc
		return slabsPerDoc / float64(chunkSize/slab)
	}
	const slack = 0.25 // the loader's slices, which grow by doubling
	small, large := mean(10), mean(1000)
	allowed := chunks(1000) - chunks(10) + slack
	t.Logf("allocations per Add: %.3f for 10 entries, %.3f for 1,000; the chunks explain %.3f of the growth", small, large, chunks(1000)-chunks(10))
	if large-small > allowed {
		t.Errorf("Add allocates %.3f times for 1,000 entries, %.3f for 10: %.3f more, where the chunk carve explains at most %.3f", large, small, large-small, allowed)
	}
}

// TestBulkLoaderDoesNotPinFlushedExtraction: the loader keeps nothing of an
// extraction — Add copies its values — and nothing of the copy once Close
// has committed it. The control keeps the document uncommitted (no Close)
// and must see a copy of the whole extraction retained, which shows the
// measurement can fail.
func TestBulkLoaderDoesNotPinFlushedExtraction(t *testing.T) {
	const entries, valueBytes = 256, 16 << 10
	retained := func(commit bool) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		loader := NewBulkLoader(discardStore{limit: 25}, BulkOptions{})
		if _, err := loader.Add(syntheticExtraction(entries, valueBytes)); err != nil {
			t.Fatal(err)
		}
		if commit {
			if dls, err := loader.Close(); err != nil || len(dls) != 1 {
				t.Fatalf("Close released %d documents (%v), want 1", len(dls), err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(loader)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	extraction := int64(entries * valueBytes)
	pinned, committed := retained(false), retained(true)
	t.Logf("bytes retained of a %d-byte extraction: %d uncommitted, %d committed", extraction, pinned, committed)
	if got := pinned; got < extraction/2 {
		t.Fatalf("a loader holding an uncommitted document kept %d of its %d bytes: the measurement no longer sees a retained copy", got, extraction)
	}
	if got := committed; got > extraction/16 {
		t.Fatalf("a loader that committed the document kept %d of its %d bytes", got, extraction)
	}
}

// slabWatch is a discardStore that records, at every put, the value bytes
// put so far and the slab bytes the loader still holds.
type slabWatch struct {
	discardStore
	held    func() int64
	put     int64
	samples [][2]int64 // put, held
}

func (s *slabWatch) BatchPut(_ string, items []kv.Item) (time.Duration, error) {
	for _, it := range items {
		for _, a := range it.Attrs {
			for _, v := range a.Values {
				s.put += int64(len(v))
			}
		}
	}
	s.samples = append(s.samples, [2]int64{s.put, s.held()})
	return time.Millisecond, nil
}

// sharedKeyExtractions returns docs one-table extractions, in key order as
// Extract gives them, in which most of a document's bytes sit under keys
// every document shares, which the first document met, and the rest under
// keys of its own. Every value byte is fill.
func sharedKeyExtractions(docs int, fill byte) []*Extraction {
	const shared, own = 40, 40
	value := func(n int) []byte { return bytes.Repeat([]byte{fill}, n) }
	exs := make([]*Extraction, docs)
	for d := range exs {
		var entries []Entry
		for k := range shared {
			entries = append(entries, Entry{Key: fmt.Sprintf("s%03d", k), Values: [][]byte{value(200)}})
		}
		for k := range own {
			entries = append(entries, Entry{Key: fmt.Sprintf("u%03d-%03d", d, k), Values: [][]byte{value(8)}})
		}
		exs[d] = &Extraction{URI: fmt.Sprintf("doc%03d.xml", d), Tables: map[string][]Entry{"t": entries}, Entries: len(entries)}
	}
	return exs
}

// addAll adds the extractions to loader.
func addAll(t *testing.T, loader *BulkLoader, exs []*Extraction) {
	t.Helper()
	for _, ex := range exs {
		if _, err := loader.Add(ex); err != nil {
			t.Fatal(err)
		}
	}
}

// within reports whether b's memory starts in ch.
func within(b []byte, ch *chunk) bool {
	p, start := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(ch))
	return cap(b) > 0 && p >= start && p < start+chunkSize
}

// TestBulkCommitReleasesSlabsAsItWrites: a commit drops the loader's copy
// of the values as it writes them, so what it holds plus what the store
// has taken stays about the size of the copy. Most of each document's
// bytes sit under keys every document shares, which the first document
// met: a commit that freed a document's copy only once all its keys were
// written would hold nearly all of it until the last keys, and so would
// chunks carved in Add order, each of which holds every cut of a few
// documents.
//
// What the loader holds is counted by chunk: every chunk with a slab not
// dropped yet and every chunk of keys, the slabs larger than a chunk, and
// the spare chunks it took from its memory and has not carved. A written
// chunk only the batch in flight reads is let go of when the put returns;
// the at most maxFree of them kept for the next commit are the loader's
// memory between commits, not its copy, and are not counted.
func TestBulkCommitReleasesSlabsAsItWrites(t *testing.T) {
	store := &slabWatch{discardStore: discardStore{limit: 25}}
	loader := NewBulkLoader(store, BulkOptions{})
	exs := sharedKeyExtractions(200, 0)
	addAll(t, loader, exs)
	var total int64
	for _, ex := range exs {
		for _, e := range ex.Tables["t"] {
			total += int64(len(e.Values[0]))
		}
	}
	pt := loader.tables["t"]
	store.held = func() (n int64) {
		for c, ch := range pt.chunks {
			if ch.mem != nil && !slices.Contains(pt.written, int32(c)) {
				n += chunkSize
			}
		}
		for s, mem := range pt.slabs {
			if pt.slabAt[s].chunk < 0 {
				n += int64(cap(mem))
			}
		}
		return n + int64(len(loader.spare))*chunkSize
	}
	start := store.held()
	if _, err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.put; got != total {
		t.Fatalf("the commit put %d value bytes, want %d", got, total)
	}
	// Headers, lengths, keys and the chunks' unused tails make the copy
	// larger than the values it holds.
	perValue := float64(start) / float64(total)
	var worst float64
	for _, s := range store.samples {
		excess := float64(s[1]) - perValue*float64(total-s[0]) // held beyond what is still to write
		worst = max(worst, excess/float64(start))
	}
	t.Logf("%d puts; a %d-byte copy; at worst %.1f%% of it held beyond the values still to write", len(store.samples), start, 100*worst)
	if limit := 0.2; worst > limit {
		t.Errorf("the commit held %.1f%% of its copy beyond the values still to write, want at most %.1f%%", 100*worst, 100*limit)
	}
}

// TestBulkCommitRecyclesChunks: the chunks a commit has written are the
// next commit's to carve from, so its first slab lies in one of them.
func TestBulkCommitRecyclesChunks(t *testing.T) {
	exs := sharedKeyExtractions(50, 0)
	var mem BulkMemory
	loader := NewBulkLoader(discardStore{limit: 25}, BulkOptions{Memory: &mem})
	addAll(t, loader, exs)
	if _, err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	// A collection takes nothing back: the memory holds the chunks.
	runtime.GC()
	released := slices.Clone(mem.free)
	if len(released) == 0 {
		t.Fatal("the commit gave back no chunk")
	}
	next := NewBulkLoader(discardStore{limit: 25}, BulkOptions{Memory: &mem})
	addAll(t, next, exs[:1])
	first := next.tables["t"].slabs[0]
	if !slices.ContainsFunc(released, func(ch *chunk) bool { return within(first, ch) }) {
		t.Errorf("the second commit's first slab lies in none of the %d chunks the first gave back", len(released))
	}
	if _, err := next.Close(); err != nil {
		t.Fatal(err)
	}
}

// partialStore puts its first batch, applies only the first half of the
// second and reports the rest as a kv.PartialPutError, which it keeps.
type partialStore struct {
	discardStore
	puts int
	err  *kv.PartialPutError
}

func (s *partialStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	if s.puts++; s.puts != 2 {
		return s.discardStore.BatchPut(table, items)
	}
	s.err = &kv.PartialPutError{Unprocessed: slices.Clone(items[len(items)/2:])}
	return time.Millisecond, s.err
}

// TestFailedBulkCommitRecyclesNothing: the items of a failed commit's
// error are built in the loader's scratch and are views of its chunks, so
// the commit gives back none of them: a later commit of other values leaves
// the error's items reading their own keys and bytes.
func TestFailedBulkCommitRecyclesNothing(t *testing.T) {
	store := &partialStore{discardStore: discardStore{limit: 25}}
	loader := NewBulkLoader(store, BulkOptions{})
	addAll(t, loader, sharedKeyExtractions(200, 'a'))
	var partial *kv.PartialPutError
	if _, err := loader.Close(); !errors.As(err, &partial) || partial != store.err {
		t.Fatalf("the commit returned %v, want the store's partial put", err)
	}
	type item struct {
		key    string
		values int
	}
	read := func() (items []item) {
		for _, it := range partial.Unprocessed {
			n := 0
			for _, a := range it.Attrs {
				for _, v := range a.Values {
					if bytes.ContainsFunc(v, func(r rune) bool { return r != 'a' }) {
						t.Fatalf("a value of unprocessed item %q reads %q", it.HashKey, v)
					}
					n++
				}
			}
			items = append(items, item{strings.Clone(it.HashKey), n})
		}
		return items
	}
	want := read()
	if len(want) == 0 || want[0].values == 0 {
		t.Fatalf("the partial put left %v unprocessed: nothing to check", want)
	}
	bulkLoad(t, discardStore{limit: 25}, sharedKeyExtractions(200, 'b'))
	if got := read(); !slices.Equal(got, want) {
		t.Errorf("after a later commit the unprocessed items read %v, want %v", got, want)
	}
}

// shipWatch is a discardStore that counts, at every put, the values of the
// batch that lie in a chunk its loader has already given back, and the
// puts at which it had given back any.
type shipWatch struct {
	discardStore
	pt                 *packTable
	early, puts, after int
}

func (s *shipWatch) BatchPut(_ string, items []kv.Item) (time.Duration, error) {
	s.puts++
	given := false
	for _, ch := range s.pt.shipped {
		given = true
		for _, it := range items {
			for _, a := range it.Attrs {
				for _, v := range a.Values {
					if within(v, ch) {
						s.early++
					}
				}
			}
		}
	}
	if given {
		s.after++
	}
	return time.Millisecond, nil
}

// TestBulkCommitGivesBackChunksOnlyOnceShipped: a chunk is given back once
// the batch holding its last views has shipped, not when its last slab is
// dropped, which is before that batch fills.
func TestBulkCommitGivesBackChunksOnlyOnceShipped(t *testing.T) {
	store := &shipWatch{discardStore: discardStore{limit: 25}}
	loader := NewBulkLoader(store, BulkOptions{})
	addAll(t, loader, sharedKeyExtractions(200, 0))
	store.pt = loader.tables["t"]
	if _, err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	if store.after == 0 {
		t.Fatalf("no chunk was given back before any of the %d puts: the check saw nothing", store.puts)
	}
	if store.early > 0 {
		t.Errorf("%d values were put from chunks already given back", store.early)
	}
}

// TestBulkCommitKeepsNoShippedViews: a shipped batch leaves no view of a
// slab behind in the loader's scratch, so a slab dropped as written is
// garbage from then on. The value views a long batch left behind a later,
// shorter one used to keep the shared keys' slabs, most of the copy, until
// the commit's end, while the store grew beside them.
func TestBulkCommitKeepsNoShippedViews(t *testing.T) {
	const docs, shared, own = 200, 40, 40
	store := &slabWatch{discardStore: discardStore{limit: 25}}
	loader := NewBulkLoader(store, BulkOptions{})
	for d := range docs {
		var entries []Entry
		for k := range shared {
			entries = append(entries, Entry{Key: fmt.Sprintf("s%03d", k), Values: [][]byte{make([]byte, 200)}})
		}
		for k := range own {
			entries = append(entries, Entry{Key: fmt.Sprintf("u%03d-%03d", d, k), Values: [][]byte{make([]byte, 8)}})
		}
		if _, err := loader.Add(&Extraction{URI: fmt.Sprintf("doc%03d.xml", d), Tables: map[string][]Entry{"t": entries}, Entries: len(entries)}); err != nil {
			t.Fatal(err)
		}
	}
	pt := loader.tables["t"]
	slabs := slices.Clone(pt.slabs)
	byAddr := make([]int, len(slabs)) // slab indexes in address order
	for i := range byAddr {
		byAddr[i] = i
	}
	addr := func(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
	slices.SortFunc(byAddr, func(i, j int) int { return cmp.Compare(addr(slabs[i][:1]), addr(slabs[j][:1])) })
	var kept int64 // the most bytes of dropped slabs that views behind a put's batch reached
	store.held = func() int64 {
		reached := make(map[int]bool)
		for _, v := range pt.vals[len(pt.vals):cap(pt.vals)] {
			if len(v) == 0 {
				continue
			}
			// The last slab starting at or before v is the only one v can be in.
			k, _ := slices.BinarySearchFunc(byAddr, addr(v)+1, func(i int, p uintptr) int { return cmp.Compare(addr(slabs[i][:1]), p) })
			if i := byAddr[max(k-1, 0)]; pt.slabs[i] == nil && addr(v) < addr(slabs[i][:1])+uintptr(cap(slabs[i])) {
				reached[i] = true
			}
		}
		var n int64
		for i := range reached {
			n += int64(cap(slabs[i]))
		}
		kept = max(kept, n)
		return n
	}
	if _, err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	if kept > 0 {
		t.Errorf("views left behind a shipped batch kept %d bytes of dropped slabs", kept)
	}
}
