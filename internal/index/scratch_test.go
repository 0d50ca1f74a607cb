package index

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// FuzzLookupRecycledScratch runs every look-up twice through one scratch
// that is reset after each, with the cache off and on, and holds it to the
// same look-up in fresh memory: the same URIs and statistics. The fuzz
// bytes pick the store, two to six documents (fuzzDoc), whether each is
// bulk-loaded or written as per-document items, and whether a pinned view
// tombstones the first document. At the end, every earlier look-up's URI list must still read
// as it did when it was returned: a list that aliased the scratch would
// read zeroed, or another look-up's URIs, once later look-ups reused it.
func FuzzLookupRecycledScratch(f *testing.F) {
	f.Add([]byte{3, 0, 0x11, 0x20, 0x01, 0x0a, 0x1c, 0x42, 0x99, 0x05})
	f.Add([]byte{4, 1, 0x12, 0x00, 0x01, 0x02, 0x2d, 0x04, 0xfe, 0x33, 0x06, 0x61, 0x77, 0x08})
	f.Add([]byte{5, 0x0c, 0xe6, 0x00, 0x09, 0x15, 0x16, 0x17, 0x3e, 0x81, 0x83, 0x82, 0x7c, 0x40, 0x41, 0x5a})
	f.Add([]byte{2, 0x0e, 0x7e, 0x7e, 0x00, 0x01, 0x02, 0x03, 0x1b, 0x24, 0x36})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 256 {
			return
		}
		n := 2 + int(data[0])%5
		flags := data[1]
		body := data[2:]
		var store kv.Store = dynamodb.New(meter.NewLedger())
		if flags&1 != 0 {
			store = simpledb.New(meter.NewLedger())
		}
		opts := OptionsFor(store)
		opts.CompressPaths = flags&2 != 0
		view := fixedView{}
		for _, s := range All() {
			if err := CreateTables(store, s); err != nil {
				t.Fatal(err)
			}
			var bulk []*Extraction
			for i := 0; i < n; i++ {
				chunk := body[i*len(body)/n : (i+1)*len(body)/n]
				ex := Extract(s, parseDoc(t, fmt.Sprintf("d%d.xml", i), fuzzDoc(chunk)), opts)
				if len(chunk) > 0 && chunk[0]%2 == 1 {
					if _, _, err := WriteExtraction(store, ex); err != nil {
						t.Fatal(err)
					}
				} else {
					bulk = append(bulk, ex)
				}
				if i > 0 {
					continue
				}
				for table, items := range ExtractionItems(store.Limits(), ex) {
					for key := range itemsByKey(items) {
						ov := view.overlayOf(table, key)
						ov.Tombstones[ex.URI] = true
						view[table][key] = ov
					}
				}
			}
			if len(bulk) > 0 {
				bulkLoad(t, store, bulk)
			}
		}
		var rv ReadView
		if flags&4 != 0 {
			rv = view
		}

		recycled := new(Scratch)
		type returned struct{ got, want []string }
		var earlier []returned
		for _, s := range All() {
			for _, src := range fuzzLookupQueries {
				q := pattern.MustParse(src).Patterns[0]
				for _, cached := range []bool{false, true} {
					// Each side has a cache of its own, cold in the first
					// round and warm in the second: what the recycled side
					// caches in the first, it reads after its reset.
					var cache, freshCache *PostingCache
					if cached {
						cache, freshCache = NewPostingCache(1<<30), NewPostingCache(1<<30)
					}
					opt := func(c *PostingCache) LookupOptions {
						return resolveLookup([]LookupOptions{{Cache: c, View: rv}})
					}
					for round := 0; round < 2; round++ {
						got, stats, err := lookupPattern(store, s, q, opt(cache), recycled)
						recycled.reset()
						want, wantStats, wantErr := lookupPattern(store, s, q, opt(freshCache), new(Scratch))
						where := fmt.Sprintf("%s %s cache %t round %d", s.Name(), src, cached, round)
						if (err != nil) != (wantErr != nil) {
							t.Fatalf("%s: err %v, in fresh memory %v", where, err, wantErr)
						}
						if err != nil {
							continue
						}
						if !slices.Equal(got, want) || stats != wantStats {
							t.Fatalf("%s: %v %+v, in fresh memory %v %+v", where, got, stats, want, wantStats)
						}
						earlier = append(earlier, returned{got, slices.Clone(got)})
					}
				}
			}
		}
		for i, r := range earlier {
			if !slices.Equal(r.got, r.want) {
				t.Fatalf("look-up %d returned %v, which reads %v after later look-ups reused its scratch", i, r.want, r.got)
			}
		}
	})
}

// gateLookupAllocs bounds the heap allocations of one look-up of the gate's
// q1-q7 with the cache off: 1.5 times the 71.9 measured once the look-up's
// memory moved into its scratch (1,691.6 before). What is left is per
// pattern, not per candidate — the augmented pattern, its keys and path
// matchers, the reads' closures and the URI list returned — so a
// per-candidate or per-posting make that slips back in fails: the seven
// look-ups join 181 candidates and build hundreds of postings.
const gateLookupAllocs = 107.8

// TestGateLookupAllocations runs q1-q7 of the workload over the gate corpus
// (400 XMark documents of 16 KB, seed 42, bulk-loaded under 2LUPI in one
// commit, as the gateable benchmark's warehouse holds it) with the cache
// off, one look-up after another in one Scratch, and holds the allocations
// per look-up to gateLookupAllocs.
func TestGateLookupAllocations(t *testing.T) {
	cfg := xmark.DefaultConfig(400)
	cfg.Seed = 42
	cfg.TargetDocBytes = 16 << 10
	store := dynamodb.New(meter.NewLedger())
	if err := CreateTables(store, TwoLUPI); err != nil {
		t.Fatal(err)
	}
	opts := OptionsFor(store)
	exs := make([]*Extraction, cfg.Docs)
	for i := range exs {
		d := xmark.GenerateDoc(cfg, i)
		doc, err := xmltree.Parse(d.URI, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		exs[i] = Extract(TwoLUPI, doc, opts)
	}
	bulkLoad(t, store, exs)
	var queries []*pattern.Query
	for _, q := range workload.XMark()[:7] {
		queries = append(queries, q.Parse())
	}
	opt := LookupOptions{Scratch: new(Scratch)}
	candidates := 0
	perLookup := testing.AllocsPerRun(20, func() {
		candidates = 0
		for _, q := range queries {
			_, st, err := LookupQuery(store, TwoLUPI, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			candidates += st.TwigCandidates
		}
	}) / float64(len(queries))
	t.Logf("%.1f allocations per look-up, %d twig-join candidates in all", perLookup, candidates)
	if perLookup > gateLookupAllocs {
		t.Errorf("%.1f allocations per look-up, want at most %.1f", perLookup, gateLookupAllocs)
	}
}

// The look-up's span carries the high-water mark of its scratch, which a
// look-up that decodes anything cannot report as zero; with the cache on
// the join still works in it.
func TestLookupSpanReportsScratch(t *testing.T) {
	store := survivorStore(t, 20)
	q := pattern.MustParse(`//a[/b]`).Patterns[0]
	for _, cache := range []*PostingCache{nil, NewPostingCache(1 << 20)} {
		tracer := obs.NewTracer(meter.NewLedger(), 64)
		root := tracer.Start(obs.SpanLookup)
		if _, _, err := LookupPattern(store, TwoLUPI, q, LookupOptions{Cache: cache, Span: root}); err != nil {
			t.Fatal(err)
		}
		root.End()
		for _, rec := range tracer.Spans() {
			if rec.Name != obs.SpanLookup {
				continue
			}
			if kb, _ := strconv.Atoi(rec.Attr("scratch_kb")); kb <= 0 {
				t.Errorf("cache %t: scratch_kb %q, want a positive count", cache != nil, rec.Attr("scratch_kb"))
			}
		}
	}
}
