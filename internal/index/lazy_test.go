package index

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Identifier postings that stored one headerless stream stay raw until a
// join reads them. These tests pin what that must not change: every stored
// value is still validated, the cache charges and detaches raw postings as
// it did eager ones, concurrent readers of a shared posting agree, and only
// candidates decode.

// oneValueItems is one key's items with one value per URI, in URI order.
func oneValueItems(key string, values map[string][]byte) []kv.Item {
	var items []kv.Item
	for _, uri := range sortedKeys(values) {
		items = append(items, kv.Item{HashKey: key, RangeKey: uri,
			Attrs: []kv.Attr{{Name: uri, Values: []kv.Value{values[uri]}}}})
	}
	return items
}

func sortedKeys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lazyFixtureIDs(n int) []xmltree.NodeID {
	ids := make([]xmltree.NodeID, n)
	for i := range ids {
		ids[i] = xmltree.NodeID{Pre: int32(2*i + 1), Post: int32(7 * i), Depth: int32(1 + i%5)}
	}
	return ids
}

// A corrupt stream or path value fails the look-up with its decode error
// even when its URI is under one key only, so it can never be a candidate:
// validation happens at decode time for every URI, not at join time.
func TestCorruptValueOutsideCandidatesFailsLookup(t *testing.T) {
	q := pattern.MustParse(`//painting[/name]`).Patterns[0]
	const outsider = "zz-corrupt.xml"
	cases := []struct {
		strategy Strategy
		table    string
		key      string
		value    []byte
		want     error
	}{
		{LUI, LUI.idTableName(), ElementKey("name"), []byte{1, 1, 0x80}, ErrCorruptIDSet},
		{TwoLUPI, TwoLUPI.idTableName(), ElementKey("name"), []byte{1, 1, 1, 1}, ErrCorruptIDSet},
		{LUP, LUP.pathTableName(), ElementKey("name"), []byte{pathBlockMarker, 0x05, 0x01, 'x'}, nil},
		{TwoLUPI, TwoLUPI.pathTableName(), ElementKey("name"), []byte{pathBlockMarker, 0x00, 0xff, 'x'}, nil},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.strategy.Name(), tc.table), func(t *testing.T) {
			store := newStore(t, tc.strategy)
			loadCorpus(t, store, tc.strategy, xmark.Paintings())
			uris, _, err := LookupPattern(store, tc.strategy, q)
			if err != nil || len(uris) == 0 {
				t.Fatalf("clean look-up: %v, %v", uris, err)
			}
			bad := kv.Item{HashKey: tc.key, RangeKey: "corrupt",
				Attrs: []kv.Attr{{Name: outsider, Values: []kv.Value{tc.value}}}}
			if _, err := store.Put(tc.table, bad); err != nil {
				t.Fatal(err)
			}
			_, _, err = LookupPattern(store, tc.strategy, q)
			if err == nil {
				t.Fatal("look-up over a corrupt value outside the candidates succeeded")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// A (key, URI) that stored a headerless stream and a blocked blob decodes
// to both values' identifiers in pre order, whichever arrives first: items
// come in range-key order, not content order, so a held raw stream must
// join the eager path when a blocked segment follows it.
func TestStreamMixedWithBlockedKeepsBoth(t *testing.T) {
	ids := lazyFixtureIDs(3 + blockedMinIDs)
	stream := EncodeIDsBinary(ids[:3], 0)[0]
	blocked := EncodeIDs(ids[3:], true, 0)[0]
	if parseBlocked(blocked, nil) == nil || parseBlocked(stream, nil) != nil {
		t.Fatal("fixture values are not one stream and one blocked blob")
	}
	for _, order := range [][][]byte{{stream, blocked}, {blocked, stream}} {
		var want []xmltree.NodeID
		var items []kv.Item
		for i, v := range order {
			part, err := DecodeIDsBinary(v)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, part...)
			items = append(items, kv.Item{HashKey: "ename", RangeKey: strconv.Itoa(i),
				Attrs: []kv.Attr{{Name: "doc.xml", Values: []kv.Value{v}}}})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Pre < want[j].Pre })
		postings, err := decodeItems(items, IDPosting, true)
		if err != nil {
			t.Fatal(err)
		}
		p := postings["doc.xml"]
		got, err := p.DecodedIDs()
		if err != nil || p.IDCount() != len(want) || p.IDSet().Len() != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("stream first %v: count %d, ids %v (%v), want %v", &order[0][0] == &stream[0], p.IDCount(), got, err, want)
		}
	}
}

// A raw posting costs the cache exactly what the eagerly decoded posting of
// the same identifiers cost: eviction, and with it the bill of a cached
// workload, must not move. The list is charged the same before any posting
// is built and after every one is.
func TestRawPostingCacheCharge(t *testing.T) {
	values := map[string][]byte{}
	want := map[string][]xmltree.NodeID{}
	for i, n := range []int{1, 3, 31} {
		uri := "doc-" + strconv.Itoa(i) + ".xml"
		want[uri] = lazyFixtureIDs(n)
		values[uri] = EncodeIDs(want[uri], true, 0)[0]
	}
	l := listOf(t, oneValueItems("ename", values), IDPosting, true)
	eager := refPostings{}
	for uri, ids := range want {
		e := &Posting{URI: uri}
		e.setIDs(ids)
		eager[uri] = e
	}
	k := cacheKey{table: "t", key: "ename", kind: IDPosting}
	charge := func() int64 {
		t.Helper()
		n, err := postingsBytes(k, l)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got, exp := charge(), refPostingsBytes(k, eager); got != exp {
		t.Fatalf("raw postings charged %d bytes, eager ones %d", got, exp)
	}
	postings, err := allPostings(l)
	if err != nil {
		t.Fatal(err)
	}
	for uri, p := range postings {
		if p.raw == nil || p.wrapped.Load() != nil {
			t.Fatalf("%s: a one-stream posting is not held raw", uri)
		}
		ids, err := p.DecodedIDs()
		if err != nil || !reflect.DeepEqual(ids, want[uri]) || cap(ids) != len(ids) {
			t.Fatalf("%s: decoded %v (cap %d, %v), want %v", uri, ids, cap(ids), err, want[uri])
		}
	}
	if got, exp := charge(), refPostingsBytes(k, eager); got != exp {
		t.Fatalf("after decode, raw postings charged %d bytes, eager ones %d", got, exp)
	}
}

// detach moves the values of a list into one buffer of its own: postings
// built afterwards stop aliasing the store's values, hold their raw streams
// without spare capacity, and still decode to the same identifiers.
func TestDetachCopiesRawStreams(t *testing.T) {
	values := map[string][]byte{}
	want := map[string][]xmltree.NodeID{}
	for i := 0; i < 4; i++ {
		uri := "doc-" + strconv.Itoa(i) + ".xml"
		want[uri] = lazyFixtureIDs(2 + i)
		values[uri] = EncodeIDsBinary(want[uri], 0)[0]
	}
	l := listOf(t, oneValueItems("ename", values), IDPosting, true)
	l.detach()
	postings, err := allPostings(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, uri := range sortedKeys(values) {
		p := postings[uri]
		if &p.raw[0] == &values[uri][0] {
			t.Fatalf("%s: raw stream still aliases the stored value", uri)
		}
		if cap(p.raw) != len(p.raw) {
			t.Fatalf("%s: detached stream has spare capacity %d", uri, cap(p.raw)-len(p.raw))
		}
	}
	for _, v := range values {
		for i := range v {
			v[i] = 0xff // a stream of unterminated varints
		}
	}
	for uri, p := range postings {
		ids, err := p.DecodedIDs()
		if err != nil || !reflect.DeepEqual(ids, want[uri]) {
			t.Fatalf("%s: decoded %v (%v) after the stored values changed, want %v", uri, ids, err, want[uri])
		}
	}
}

// A cached look-up shares its postings with every later look-up. Concurrent
// readers that race to decode the same raw posting must all see the same
// identifiers; under -race this also shows the memo is published safely.
func TestConcurrentDecodeOfSharedRawPostings(t *testing.T) {
	cfg := xmark.DefaultConfig(40)
	cfg.TargetDocBytes = 3 << 10
	c := buildCorpus(t, dynamodb.New(meter.NewLedger()), xmark.Generate(cfg))
	cache := NewPostingCache(0)
	q := pattern.MustParse(`//item[/name, /payment]`).Patterns[0]
	want, _, err := LookupPattern(c.store, LUI, q, LookupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{ElementKey("item"), ElementKey("name"), ElementKey("payment")}
	shared, _, err := readPostings(c.store, LUI.idTableName(), keys, IDPosting, true, LookupOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, byURI := range shared {
				for uri, p := range byURI {
					ids, err := p.DecodedIDs()
					if err == nil && len(ids) != p.IDCount() {
						err = fmt.Errorf("%s: %d ids, count %d", uri, len(ids), p.IDCount())
					}
					if err == nil && p.IDSet().Len() != p.IDCount() {
						err = fmt.Errorf("%s: set of %d, count %d", uri, p.IDSet().Len(), p.IDCount())
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			got, stats, err := LookupPattern(c.store, LUI, q, LookupOptions{Cache: cache})
			if err == nil && stats.CacheHits == 0 {
				err = errors.New("the look-up did not read the shared postings")
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("cached look-up %v, uncached %v", got, want)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Only the postings of candidates are built and decode. The twigjoin span's
// postings_decoded is at most candidates × keys, and after a cached 2LUPI
// look-up the resident lists hold postings for the candidates only.
func TestLookupDecodesOnlyCandidates(t *testing.T) {
	cfg := xmark.DefaultConfig(120)
	cfg.TargetDocBytes = 4 << 10
	c := buildCorpus(t, dynamodb.New(meter.NewLedger()), xmark.Generate(cfg))
	q := pattern.MustParse(`//item[//name~"Obsidian", /location{val}]`).Patterns[0]
	keys := augment(q).distinctKeys()

	tracer := obs.NewTracer(meter.NewLedger(), 64)
	root := tracer.Start("query")
	cache := NewPostingCache(0)
	uris, stats, err := LookupPattern(c.store, TwoLUPI, q, LookupOptions{Cache: cache, Span: root})
	root.End()
	if err != nil || len(uris) == 0 {
		t.Fatalf("look-up: %v, %v", uris, err)
	}
	var tj *obs.SpanRecord
	for _, rec := range tracer.Spans() {
		if rec.Name == obs.SpanTwigJoin {
			tj = &rec
		}
	}
	if tj == nil {
		t.Fatal("no twigjoin span")
	}
	decoded, _ := strconv.Atoi(tj.Attr("postings_decoded"))
	candidates, _ := strconv.Atoi(tj.Attr("candidates"))
	if candidates != stats.TwigCandidates || decoded == 0 || decoded > candidates*len(keys) {
		t.Fatalf("postings_decoded %d, candidates %d (stats %d), keys %d", decoded, candidates, stats.TwigCandidates, len(keys))
	}

	// The same look-up again shares the cached postings, whose memos the
	// first one filled: it decodes nothing.
	tracer = obs.NewTracer(meter.NewLedger(), 64)
	root = tracer.Start("query")
	again, _, err := LookupPattern(c.store, TwoLUPI, q, LookupOptions{Cache: cache, Span: root})
	root.End()
	if err != nil || !reflect.DeepEqual(again, uris) {
		t.Fatalf("repeated look-up: %v, %v; first %v", again, err, uris)
	}
	for _, rec := range tracer.Spans() {
		if rec.Name == obs.SpanTwigJoin && rec.Attr("postings_decoded") != "0" {
			t.Fatalf("repeated cached look-up: postings_decoded %s, want 0", rec.Attr("postings_decoded"))
		}
	}

	shared, rs, err := ReadKeys(c.store, TwoLUPI.idTableName(), keys, IDPosting, true, LookupOptions{Cache: cache})
	if err != nil || rs.CacheHits != int64(len(keys)) {
		t.Fatalf("re-read: %+v, %v", rs, err)
	}
	unbuilt := 0
	for _, k := range keys {
		l := shared[k]
		if len(l.built) > candidates {
			t.Errorf("key %s: %d postings built for %d candidates", k, len(l.built), candidates)
		}
		for _, p := range l.built {
			if p.raw != nil && p.wrapped.Load() == nil {
				t.Errorf("key %s: candidate %s's raw posting was built but not decoded", k, p.URI)
			}
		}
		unbuilt += l.Len() - len(l.built)
	}
	if unbuilt == 0 {
		t.Error("every URI has a posting: the look-up builds postings for what it fetched")
	}
}

// A URI stored in two items under one key — a bulk pack and a later
// per-document re-index of the same document — decodes its identifiers
// once, whatever the two values' shapes: a raw stream twice, a blocked blob
// twice, or one of each in either order.
func TestDuplicateContributionDecodesOnce(t *testing.T) {
	small := lazyFixtureIDs(3)
	large := lazyFixtureIDs(3 * blockedMinIDs)
	stream := EncodeIDsBinary(small, 0)[0]
	blocked := EncodeIDs(large, true, 0)[0]
	if parseBlocked(blocked, nil) == nil || parseBlocked(stream, nil) != nil {
		t.Fatal("fixture values are not one stream and one blocked blob")
	}
	// mixed is a stream of the large set's first identifiers.
	mixed := EncodeIDsBinary(large[:3], 0)[0]
	for _, tc := range []struct {
		name   string
		values [][]byte
		want   []xmltree.NodeID
	}{
		{"raw+raw", [][]byte{stream, stream}, small},
		{"blocked+blocked", [][]byte{blocked, blocked}, large},
		{"stream+blocked", [][]byte{mixed, blocked}, large},
		{"blocked+stream", [][]byte{blocked, mixed}, large},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := []kv.Item{
				{HashKey: "ename", RangeKey: "a-pack", Attrs: []kv.Attr{
					{Name: "a.xml", Values: []kv.Value{tc.values[0]}},
					{Name: "doc.xml", Values: []kv.Value{tc.values[0]}},
				}},
				{HashKey: "ename", RangeKey: "b-single", Attrs: []kv.Attr{{Name: "doc.xml", Values: []kv.Value{tc.values[1]}}}},
			}
			postings, err := decodeItems(items, IDPosting, true)
			if err != nil {
				t.Fatal(err)
			}
			p := postings["doc.xml"]
			got, err := p.DecodedIDs()
			if err != nil || p.IDCount() != len(tc.want) || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("count %d, ids %v (%v), want %v", p.IDCount(), got, err, tc.want)
			}
		})
	}
}
