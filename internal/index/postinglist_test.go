package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// survivorStore bulk-loads one document that matches //a[/b] and misses
// that hold a but no b: under the identifier table's key ea every miss is
// a URI the look-up reads and that never survives.
func survivorStore(t *testing.T, misses int) kv.Store {
	t.Helper()
	store := newStore(t, TwoLUPI)
	opts := OptionsFor(store)
	exs := []*Extraction{Extract(TwoLUPI, parseDoc(t, "hit.xml", "<r><a><b/></a></r>"), opts)}
	for i := 0; i < misses; i++ {
		d := parseDoc(t, fmt.Sprintf("miss-%04d.xml", i), "<r><a/></r>")
		exs = append(exs, Extract(TwoLUPI, d, opts))
	}
	bulkLoad(t, store, exs)
	return store
}

// A look-up pays for the URIs it reads but that do not survive only their
// rows in the posting lists: a 2LUPI look-up with one surviving URI and
// 100, then 1,000, non-matching URIs under its key ea allocates at most 48
// bytes more per extra URI (one 40-byte row). A posting and a map slot per
// URI, as a full decode builds, cost about 146.
func TestLookupAllocationsPerNonSurvivor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what is put back")
	}
	q := pattern.MustParse(`//a[/b]`).Patterns[0]
	perLookup := func(misses int) float64 {
		store := survivorStore(t, misses)
		var opts LookupOptions
		run := func() {
			uris, _, err := LookupPattern(store, TwoLUPI, q, opts)
			if err != nil || len(uris) != 1 || uris[0] != "hit.xml" {
				t.Fatalf("look-up over %d misses: %v, %v", misses, uris, err)
			}
		}
		run()
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perLookup(100), perLookup(1000)
	perURI := (large - small) / 900
	t.Logf("bytes per look-up: %.0f over 100 misses, %.0f over 1,000: %.1f per extra miss", small, large, perURI)
	if perURI > 48 {
		t.Errorf("%.1f bytes allocated per non-surviving URI, want at most 48", perURI)
	}
}

// A look-up's index.get spans say how many URIs the phase's lists held and
// how many postings it built: here one per key for the one survivor.
func TestIndexGetSpanCountsURIsAndPostings(t *testing.T) {
	store := survivorStore(t, 20)
	tracer := obs.NewTracer(meter.NewLedger(), 64)
	root := tracer.Start("query")
	q := pattern.MustParse(`//a[/b]`).Patterns[0]
	if _, _, err := LookupPattern(store, TwoLUPI, q, LookupOptions{Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	want := map[string][2]int{ // table: uris_seen, postings_built
		TwoLUPI.pathTableName(): {1, 1},      // eb: hit.xml
		TwoLUPI.idTableName():   {1 + 21, 2}, // eb: hit.xml; ea: hit.xml and 20 misses
	}
	gets := 0
	for _, rec := range tracer.Spans() {
		if rec.Name != obs.SpanIndexGet {
			continue
		}
		gets++
		seen, _ := strconv.Atoi(rec.Attr("uris_seen"))
		built, _ := strconv.Atoi(rec.Attr("postings_built"))
		if w := want[rec.Attr("table")]; seen != w[0] || built != w[1] {
			t.Errorf("%s: uris_seen %d, postings_built %d; want %d, %d", rec.Attr("table"), seen, built, w[0], w[1])
		}
	}
	if gets != 2 {
		t.Fatalf("%d index.get spans, want 2", gets)
	}
}

// intersect holds the survivors of every list, in URI order, with each
// one's first row in every list — whatever the lists' lengths and
// however many rows a URI has.
func TestIntersectMergesSortedLists(t *testing.T) {
	rows := func(uris ...string) *PostingList {
		l := &PostingList{kind: PathPosting}
		for _, u := range uris {
			if len(l.rows) == 0 || l.rows[len(l.rows)-1].uri != u {
				l.uris++
			}
			l.rows = append(l.rows, uriRow{uri: u})
		}
		return l
	}
	long := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		long = append(long, fmt.Sprintf("u%03d", i))
	}
	a := rows(long...)
	b := rows("u000", "u000", "u007", "u150", "u150", "u150", "u299", "u300")
	c := rows("u007", "u150", "u151", "u299")
	uris, at := intersect([]*PostingList{a, b, c}, newScratch())
	wantURIs := []string{"u007", "u150", "u299"}
	wantAt := []int32{7, 2, 0, 150, 3, 1, 299, 6, 3}
	if fmt.Sprint(uris) != fmt.Sprint(wantURIs) || fmt.Sprint(at) != fmt.Sprint(wantAt) {
		t.Fatalf("intersect = %v %v, want %v %v", uris, at, wantURIs, wantAt)
	}
	if uris, _ := intersect([]*PostingList{a, nil}, newScratch()); uris != nil {
		t.Fatalf("intersect with an empty list = %v", uris)
	}
	if uris, _ := intersect([]*PostingList{a, uriList([]string{"u042", "zzz"}, nil)}, newScratch()); fmt.Sprint(uris) != "[u042]" {
		t.Fatalf("intersect with a reduction list = %v", uris)
	}
}

// BenchmarkInvalidateExtraction invalidates a 545-key document, resident
// under two overlay stamps, in a cache of 1k and of 50k other resident
// entries: the stamp index makes the cost the document's, whatever else is
// resident.
func BenchmarkInvalidateExtraction(b *testing.B) {
	const keys = 545
	ex := &Extraction{URI: "doc.xml", Tables: map[string][]Entry{}}
	for i := 0; i < keys; i++ {
		table := LUP.Tables()[0]
		ex.Tables[table] = append(ex.Tables[table], Entry{Key: fmt.Sprintf("e%04d", i)})
	}
	presence := uriList([]string{"doc.xml"}, nil)
	for _, resident := range []int{1_000, 50_000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			cache := NewPostingCache(1 << 40)
			put := func(k cacheKey) {
				if _, err := cache.put(k, presence); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < resident; i++ {
				put(cacheKey{table: "other", key: fmt.Sprintf("k%06d", i), kind: PathPosting, ver: uint64(i % 3)})
			}
			fill := func() {
				for table, entries := range ex.Tables {
					for _, e := range entries {
						put(cacheKey{table: table, key: e.Key, kind: PathPosting})
						put(cacheKey{table: table, key: e.Key, kind: PathPosting, ver: 7})
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				b.StartTimer()
				cache.InvalidateExtraction(ex)
			}
			b.StopTimer()
			if n := cache.Len(); n != resident {
				b.Fatalf("%d entries resident after invalidation, want %d", n, resident)
			}
		})
	}
}

// A key's rows come out sorted by URI, each URI's rows in record order,
// whichever order the records arrive in: packs of disjoint URI ranges and
// per-document items are ordered a record at a time, and a pack that
// interleaves with another record is sorted row by row.
func TestDecodeSortsRowsByURI(t *testing.T) {
	pack := func(rk string, uris ...string) kv.Item {
		it := kv.Item{HashKey: "k", RangeKey: rk}
		for _, u := range uris {
			it.Attrs = append(it.Attrs, kv.Attr{Name: u, Values: []kv.Value{[]byte("/" + rk + "/" + u)}})
		}
		return it
	}
	for _, tc := range []struct {
		name  string
		items []kv.Item
	}{
		{"sorted", []kv.Item{pack("1", "a", "b"), pack("2", "c", "d")}},
		{"disjoint packs", []kv.Item{pack("1", "g", "h"), pack("2", "a", "b", "c"), pack("3", "d", "e")}},
		{"per-document items", []kv.Item{pack("1", "d"), pack("2", "b"), pack("3", "a"), pack("4", "b"), pack("5", "c")}},
		{"interleaved", []kv.Item{pack("1", "b"), pack("2", "a", "c", "e"), pack("3", "c"), pack("4", "d")}},
		{"a pack's last URI in an earlier item", []kv.Item{pack("1", "b"), pack("2", "a", "b"), pack("3", "c")}},
		{"a chunked URI", []kv.Item{pack("1", "c"), pack("2", "b"), pack("3", "a"), pack("4", "b")}},
		{"descending pack", []kv.Item{pack("1", "c", "a"), pack("2", "b")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []uriRow
			for _, it := range tc.items {
				for _, a := range it.Attrs {
					want = append(want, uriRow{uri: a.Name, v: a.Values[0]})
				}
			}
			slices.SortStableFunc(want, func(a, b uriRow) int { return strings.Compare(a.uri, b.uri) })
			l := listOf(t, tc.items, PathPosting, false)
			if fmt.Sprint(l.rows) != fmt.Sprint(want) {
				t.Fatalf("rows %s, want %s", l.rows, want)
			}
			if uris := len(slices.CompactFunc(slices.Clone(want), func(a, b uriRow) bool { return a.uri == b.uri })); l.Len() != uris {
				t.Fatalf("Len %d, want %d", l.Len(), uris)
			}
		})
	}
}

// sortRuns orders runs as a stable sort by first URI does, whatever the
// URIs share: a common prefix, eight or more bytes past it (where the
// abbreviated keys tie), a URI that is a prefix of another, or nothing.
func TestSortRunsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	stems := []string{"", "x", "xmark-000", "xmark-000123456789", "doc/", "doc/aaaaaaaaaaaaaaaa"}
	var spare []rowRun
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		runs := make([]rowRun, n)
		for i := range runs {
			u := stems[r.Intn(len(stems))]
			for k := r.Intn(4); k > 0; k-- {
				u += string(rune('0' + r.Intn(3)))
			}
			runs[i] = rowRun{uri: u, start: int32(2 * i), end: int32(2*i + 1)}
		}
		want := slices.Clone(runs)
		slices.SortStableFunc(want, func(a, b rowRun) int { return strings.Compare(a.uri, b.uri) })
		spare = sortRuns(runs, spare)
		for i := range runs {
			if runs[i].uri != want[i].uri || runs[i].start != want[i].start {
				t.Fatalf("trial %d: run %d is %q@%d, want %q@%d", trial, i, runs[i].uri, runs[i].start, want[i].uri, want[i].start)
			}
		}
	}
}
