package index

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
	"repro/internal/pattern"
)

// fuzzLookupQueries cover every look-up shape over fuzzDoc's vocabulary: a
// single key, child and descendant edges, branches, a word predicate, an
// equality predicate, and a root pinned to the document root.
var fuzzLookupQueries = []string{
	`//a`,
	`//a[//b]`,
	`//a[/b]`,
	`//a[/b, //c]`,
	`//b[//c~"x"]`,
	`//a[/c="y z"]`,
	`/r[//c]`,
}

// fuzzDoc turns fuzz bytes into one small well-formed document under root
// r: each byte opens an element (a, b, c or d), closes one, writes a word
// (x, y or z), or writes a run of up to 47 c elements — long enough for a
// key's identifiers to take the blocked format.
func fuzzDoc(data []byte) string {
	var b strings.Builder
	b.WriteString("<r>")
	var open []byte
	for _, c := range data {
		switch op := c % 8; {
		case op < 4:
			label := "abcd"[op]
			open = append(open, label)
			fmt.Fprintf(&b, "<%c>", label)
		case op == 4 && len(open) > 0:
			fmt.Fprintf(&b, "</%c>", open[len(open)-1])
			open = open[:len(open)-1]
		case op == 6:
			for i := 0; i < int(c>>3)%48; i++ {
				b.WriteString("<c>x</c>")
			}
		default:
			fmt.Fprintf(&b, " %c ", "xyz"[int(c>>3)%3])
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "</%c>", open[i])
	}
	b.WriteString("</r>")
	return b.String()
}

// fixedView is a ReadView over fixed overlays, by table and key.
type fixedView map[string]map[string]kv.Overlay

func (v fixedView) Version() uint64 { return 1 }

func (v fixedView) Capture(table string, keys []string) map[string]kv.Overlay {
	var out map[string]kv.Overlay
	for _, k := range keys {
		if ov, ok := v[table][k]; ok {
			if out == nil {
				out = map[string]kv.Overlay{}
			}
			out[k] = ov
		}
	}
	return out
}

// overlayOf returns the table's overlay of key, created on first use.
func (v fixedView) overlayOf(table, key string) kv.Overlay {
	if v[table] == nil {
		v[table] = map[string]kv.Overlay{}
	}
	ov := v[table][key]
	if ov.Replaces == nil {
		ov.Replaces = map[string][]kv.Item{}
	}
	if ov.Tombstones == nil {
		ov.Tombstones = map[string][]kv.Item{}
	}
	return ov
}

// itemsByKey groups a table slab of ExtractionItems by hash key.
func itemsByKey(items []kv.Item) map[string][]kv.Item {
	out := map[string][]kv.Item{}
	for _, it := range items {
		out[it.HashKey] = append(out[it.HashKey], it)
	}
	return out
}

// FuzzLookupAgreesWithFullDecode holds the four look-ups to the reference
// of lookup_reference_test.go, which decodes every record of every key into
// eagerly built postings. The fuzz bytes pick a store (DynamoDB with binary,
// sometimes blocked identifiers, or SimpleDB with text identifiers split
// across items), whether a key holds a record without attributes, two to
// six documents, how each is stored — in a bulk
// commit's packs, as per-document items, or both, so that its URI sits in
// two items under a key — and how a pinned view overlays it: unchanged,
// replaced by another document's content, or tombstoned. Every look-up runs
// with the cache off, cold and warm, and must return the reference's URIs
// and statistics; every list the cache holds must be charged what the
// reference's postings would be.
func FuzzLookupAgreesWithFullDecode(f *testing.F) {
	f.Add([]byte{3, 0, 0x11, 0x20, 0x01, 0x0a, 0x1c, 0x42, 0x99, 0x05})
	f.Add([]byte{4, 1, 0x12, 0x00, 0x01, 0x02, 0x2d, 0x04, 0xfe, 0x33, 0x06, 0x61, 0x77, 0x08})
	f.Add([]byte{5, 2, 0xe6, 0x00, 0x09, 0x15, 0x16, 0x17, 0x3e, 0x81, 0x83, 0x82, 0x7c, 0x40, 0x41, 0x5a})
	f.Add([]byte{2, 3, 0x7e, 0x7e, 0x00, 0x01, 0x02, 0x03, 0x1b, 0x24, 0x36})
	f.Add([]byte{3, 0x14, 0x09, 0x01, 0x02, 0x0c, 0x01, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 256 {
			return
		}
		n := 2 + int(data[0])%5
		flags := data[1]
		body := data[2:]
		docs := make([]string, n)
		layout := make([]byte, n)
		for i := range docs {
			chunk := body[i*len(body)/n : (i+1)*len(body)/n]
			docs[i] = fuzzDoc(chunk)
			if len(chunk) > 0 {
				layout[i] = chunk[0]
			}
		}
		for _, s := range All() {
			checkLookupAgreement(t, s, flags, docs, layout)
		}
	})
}

// checkLookupAgreement stores docs for one strategy as flags and layout
// say and compares every query's look-ups with the reference.
func checkLookupAgreement(t *testing.T, s Strategy, flags byte, docs []string, layout []byte) {
	var store kv.Store = dynamodb.New(meter.NewLedger())
	if flags&1 != 0 {
		store = simpledb.New(meter.NewLedger())
	}
	if err := CreateTables(store, s); err != nil {
		t.Fatal(err)
	}
	opts := OptionsFor(store)
	opts.CompressPaths = flags&2 != 0
	uri := func(i int) string { return fmt.Sprintf("d%d.xml", i) }
	extract := func(i int, src string) *Extraction {
		return Extract(s, parseDoc(t, uri(i), src), opts)
	}

	var bulk, single []*Extraction
	view := fixedView{}
	for i, src := range docs {
		ex := extract(i, src)
		switch layout[i] % 3 {
		case 0:
			bulk = append(bulk, ex)
		case 1:
			single = append(single, ex)
		default: // in a pack and in a per-document item
			bulk = append(bulk, ex)
			single = append(single, ex)
		}
		switch (layout[i] / 3) % 3 {
		case 1: // replaced by the next document's content
			stored := ExtractionItems(store.Limits(), ex)
			repl := ExtractionItems(store.Limits(), extract(i, docs[(i+1)%len(docs)]))
			for _, table := range s.Tables() {
				old, now := itemsByKey(stored[table]), itemsByKey(repl[table])
				for key := range old {
					if _, ok := now[key]; !ok {
						now[key] = []kv.Item{}
					}
				}
				for key, items := range now {
					ov := view.overlayOf(table, key)
					ov.Replaces[uri(i)] = items
					ov.Stamp = uint64(1 + i)
					view[table][key] = ov
				}
			}
		case 2: // tombstoned
			for table, items := range ExtractionItems(store.Limits(), ex) {
				for key, owned := range itemsByKey(items) {
					ov := view.overlayOf(table, key)
					ov.Tombstones[uri(i)] = owned
					view[table][key] = ov
				}
			}
		}
	}
	if len(bulk) > 0 {
		bulkLoad(t, store, bulk)
	}
	for _, ex := range single {
		if _, _, err := WriteExtraction(store, ex); err != nil {
			t.Fatal(err)
		}
	}
	if flags&16 != 0 {
		// A record without attributes: a key that holds no URI yet is
		// cached, as the reference's empty map was.
		for _, table := range s.Tables() {
			if _, err := store.Put(table, kv.Item{HashKey: ElementKey("b"), RangeKey: "bare"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var rv ReadView
	if flags&4 != 0 {
		rv = view
	}

	for _, src := range fuzzLookupQueries {
		q := pattern.MustParse(src).Patterns[0]
		want, wantStats, wantErr := refLookupPattern(store, s, q, rv)
		check := func(mode string, got []string, stats, wantStats LookupStats, err error) {
			t.Helper()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s %s %s: err %v, reference %v", s.Name(), src, mode, err, wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %s: %v, reference %v", s.Name(), src, mode, got, want)
				}
			}
			if stats != wantStats {
				t.Fatalf("%s %s %s: stats %+v, reference %+v", s.Name(), src, mode, stats, wantStats)
			}
		}
		lookup := func(cache *PostingCache) ([]string, LookupStats, error) {
			return LookupPattern(store, s, q, LookupOptions{Cache: cache, View: rv})
		}

		got, stats, err := lookup(nil)
		check("uncached", got, stats, wantStats, err)

		cache := NewPostingCache(1 << 30)
		cold := wantStats
		cold.CacheMisses = wantStats.GetOps
		got, stats, err = lookup(cache)
		check("cold", got, stats, cold, err)
		if wantErr != nil {
			continue
		}
		checkCacheCharges(t, store, cache, rv)

		// A warm look-up hits every key whose list was cached: a key
		// without records, or whose records the view's replacements all
		// supersede, leaves nothing to cache and is read (and billed)
		// again.
		resident := int64(cache.Len())
		got, stats, err = lookup(cache)
		warm := LookupStats{
			GetOps:         wantStats.GetOps - resident,
			GetTime:        stats.GetTime,
			BytesFetched:   stats.BytesFetched,
			TwigCandidates: wantStats.TwigCandidates,
			CacheHits:      resident,
			CacheMisses:    wantStats.GetOps - resident,
		}
		if warm.GetOps == 0 {
			warm.GetTime, warm.BytesFetched = 0, 0
		}
		check("warm", got, stats, warm, err)
	}
}

// checkCacheCharges requires every resident list to be charged what the
// reference decode of its key's records (and the view's replacements) would
// be charged.
func checkCacheCharges(t *testing.T, store kv.Store, cache *PostingCache, view ReadView) {
	t.Helper()
	for i := range cache.shards {
		for el := cache.shards[i].lru.Front(); el != nil; el = el.Next() {
			k := el.Value.(*cacheEntry).key
			var overlays map[string]kv.Overlay
			if view != nil {
				overlays = view.Capture(k.table, []string{k.key})
			}
			var ref refPostings
			var derr error
			_, err := store.Read(context.Background(), k.table, []string{k.key}, func(_ string, recs *kv.Records) {
				ref, derr = refDecodeKey(recs, overlays[k.key].Replaces, k.kind, store.Limits().SupportsBinary && k.kind == IDPosting)
			})
			if err == nil {
				err = derr
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := el.Value.(*cacheEntry).bytes, refPostingsBytes(k, ref); got != want {
				t.Fatalf("%s/%s: cache charge %d, reference %d", k.table, k.key, got, want)
			}
		}
	}
}
