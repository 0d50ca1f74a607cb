package index

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/xmltree"
)

// Decoded postings keep the raw path values, the raw identifier streams
// and the payloads of lazy identifier sets, which for a fresh store read are views of the store's
// memory: a 16 KB value keeps the 256 KB chunk around it alive. That is fine
// for the length of a request and wrong for the posting cache, whose budget
// counts the 16 KB; a cache fill detaches what it keeps. The test reads one
// key in sixteen of an 8 MB table and then drops the table: postings kept
// from an uncached read still hold every chunk (which shows the measurement
// sees a pinned arena), the cache holds only its own copies.
func TestPostingCacheDoesNotPinArena(t *testing.T) {
	const keys, valueBytes, stride = 512, 16 << 10, 16
	ids := make([]xmltree.NodeID, 5000)
	for i := range ids {
		ids[i] = xmltree.NodeID{Pre: int32(3 * i), Post: int32(5 * i), Depth: int32(i % 9)}
	}
	blob := EncodeIDs(ids, true, dynamodb.MaxItemBytes/2)[0]
	if set, _, err := DecodeIDSet(blob, true); err != nil || set == nil {
		t.Fatalf("identifier fixture is not a lazily decoded blocked set: %v %v", set, err)
	}
	streams := EncodeIDsBinary(ids, dynamodb.MaxItemBytes/2)
	if len(streams) != 1 || parseBlocked(streams[0], nil) != nil {
		t.Fatalf("stream fixture is %d values, or reads as a blocked blob", len(streams))
	}
	fixtures := []struct {
		name  string
		kind  PostingKind
		value []byte
	}{
		{"paths", PathPosting, []byte("/" + strings.Repeat("site/regions/", valueBytes/13))},
		{"ids", IDPosting, blob},
		{"stream", IDPosting, streams[0]},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			var subset []string
			for k := 0; k < keys; k += stride {
				subset = append(subset, fmt.Sprintf("key-%04d", k))
			}
			retained := func(cache *PostingCache) int64 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				store := dynamodb.New(meter.NewLedger())
				if err := store.CreateTable("t"); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < keys; k++ {
					it := kv.Item{HashKey: fmt.Sprintf("key-%04d", k), RangeKey: "r",
						Attrs: []kv.Attr{{Name: "doc.xml", Values: []kv.Value{fx.value}}}}
					if _, err := store.Put("t", it); err != nil {
						t.Fatal(err)
					}
				}
				opts := LookupOptions{Cache: cache}
				kept, rs, err := ReadKeys(store, "t", subset, fx.kind, true, opts)
				if err != nil || rs.GetOps != int64(len(subset)) {
					t.Fatalf("read: %v, %+v", err, rs)
				}
				if cache != nil {
					kept = nil // the cache is all that outlives the request
				}
				if err := store.DeleteTable("t"); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				if cache != nil {
					// Still served, from the cache's own bytes.
					again, rs, err := readPostings(store, "t", subset, fx.kind, true, opts)
					if err != nil || rs.CacheHits != int64(len(subset)) {
						t.Fatalf("cached read after the table was dropped: %v, %+v", err, rs)
					}
					p := again[subset[3]]["doc.xml"]
					if got, err := p.DecodedIDs(); fx.kind == IDPosting && (err != nil || len(got) != len(ids) || got[77] != ids[77]) {
						t.Fatalf("cached identifiers: %d of %d, %v", len(got), len(ids), err)
					}
					if fx.kind == PathPosting && string(p.PathVals[0]) != string(fx.value) {
						t.Fatal("cached path value differs from what was stored")
					}
				}
				runtime.KeepAlive(kept)
				runtime.KeepAlive(store)
				return int64(after.HeapAlloc) - int64(before.HeapAlloc)
			}
			arena := int64(keys * len(fx.value))
			if got := retained(nil); got < arena/2 {
				t.Fatalf("postings of an uncached read kept %d of %d arena bytes: the measurement no longer sees a pinned arena", got, arena)
			}
			if got := retained(NewPostingCache(64 << 20)); got > 3*arena/stride {
				t.Fatalf("the cache kept %d bytes for %d keys of %d: it pins the arena", got, len(subset), len(fx.value))
			}
		})
	}
}
