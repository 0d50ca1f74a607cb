package index

import (
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/xmark"
)

// These tests pin the (table, shard) keying of the posting cache: once the
// cache fronts a hash-partitioned store, the store shard a key routes to is
// part of the cache identity, so a stale entry attributed to shard k cannot
// survive a write routed to shard k — whether the write goes through
// WriteExtraction or the bulk loader.

// shardedCacheSetup indexes one document into a 4-way sharded store with a
// shard-aware cache and picks a key that more documents will touch.
func shardedCacheSetup(t *testing.T, s Strategy) (kv.Store, *PostingCache, []*Extraction, string, string) {
	t.Helper()
	docs := xmark.Generate(xmark.Config{Docs: 4, TargetDocBytes: 2 << 10, Seed: 11})
	store := kv.NewSharded(dynamodb.New(meter.NewLedger()), 4)
	if err := CreateTables(store, s); err != nil {
		t.Fatal(err)
	}
	cache := NewPostingCache(1 << 20)
	cache.SetStoreShards(4)
	opts := OptionsFor(store)
	exs := make([]*Extraction, len(docs))
	for i, gd := range docs {
		exs[i] = Extract(s, parseDoc(t, gd.URI, string(gd.Data)), opts)
	}
	table := s.Tables()[0]
	// A key both doc 0 and doc 1 contribute to, preferring one that routes
	// to a non-zero shard so the test exercises a partition an unsharded
	// cache key could never name.
	keys := func(ex *Extraction) map[string]bool {
		m := make(map[string]bool)
		for _, e := range ex.Tables[table] {
			m[e.Key] = true
		}
		return m
	}
	k0, k1 := keys(exs[0]), keys(exs[1])
	var key string
	for k := range k0 {
		if !k1[k] {
			continue
		}
		if key == "" || (kv.ShardIndex(key, 4) == 0 && kv.ShardIndex(k, 4) != 0) {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no shared key between the first two documents")
	}
	if _, _, err := WriteExtraction(store, exs[0], cache); err != nil {
		t.Fatal(err)
	}
	return store, cache, exs, table, key
}

// readThrough fetches one key's postings through the cache.
func readThrough(t *testing.T, store kv.Store, cache *PostingCache, table, key string) map[string]*Posting {
	t.Helper()
	out, _, err := ReadKeys(store, table, []string{key}, URIPosting, false, LookupOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return out[key]
}

func TestShardedCacheInvalidationOnWrite(t *testing.T) {
	store, cache, exs, table, key := shardedCacheSetup(t, LU)

	first := readThrough(t, store, cache, table, key)
	if first[exs[0].URI] == nil {
		t.Fatalf("first read missing %s", exs[0].URI)
	}
	if _, rs, err := ReadKeys(store, table, []string{key}, URIPosting, false, LookupOptions{Cache: cache}); err != nil || rs.CacheHits != 1 {
		t.Fatalf("second read should hit the cache: %+v, %v", rs, err)
	}

	// A write routed through the sharded store must invalidate the entry on
	// the shard the key lives on; the next read sees the new document.
	if _, _, err := WriteExtraction(store, exs[1], cache); err != nil {
		t.Fatal(err)
	}
	third := readThrough(t, store, cache, table, key)
	if third[exs[1].URI] == nil {
		t.Errorf("stale cache entry on shard %d survived a write routed to it", kv.ShardIndex(key, 4))
	}
	if third[exs[0].URI] == nil {
		t.Errorf("read after invalidation lost the earlier document")
	}
}

func TestShardedCacheInvalidationViaBulkLoader(t *testing.T) {
	store, cache, exs, table, key := shardedCacheSetup(t, LU)

	readThrough(t, store, cache, table, key) // warm the entry

	loader := NewBulkLoader(store, BulkOptions{}, cache)
	if _, err := loader.Add(exs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	got := readThrough(t, store, cache, table, key)
	if got[exs[1].URI] == nil {
		t.Errorf("bulk-loaded write did not invalidate the cached entry on shard %d", kv.ShardIndex(key, 4))
	}
}

// TestCacheShardIsPartOfIdentity checks the keying directly: an entry
// cached while the store was unsharded (shard 0) must not be served for the
// same (table, key, kind) once the key routes to a different shard.
func TestCacheShardIsPartOfIdentity(t *testing.T) {
	// Find a key that routes off shard 0 under 4-way sharding.
	key := ""
	for _, k := range []string{"site", "item", "person", "mailbox", "region"} {
		if kv.ShardIndex(k, 4) != 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no sample key routes off shard 0")
	}
	c := NewPostingCache(1 << 20)
	c.SetStoreShards(1)
	ck := cacheKey{table: "t", key: key, kind: URIPosting}
	c.put(ck, map[string]*Posting{"doc" + string(URIPosting): {URI: "doc"}})
	if _, ok := c.get(ck); !ok {
		t.Fatal("entry not resident under the shard it was cached for")
	}
	c.SetStoreShards(4)
	if _, ok := c.get(ck); ok {
		t.Errorf("entry cached for shard 0 served for shard %d", kv.ShardIndex(key, 4))
	}
	// Invalidation through the new shard count must clear a fresh entry.
	c.put(ck, map[string]*Posting{"doc": {URI: "doc"}})
	c.Invalidate("t", key)
	if _, ok := c.get(ck); ok {
		t.Error("Invalidate missed the entry on the key's shard")
	}
}
