package index

import (
	"container/list"
	"sync"
)

// This file implements the hot-key posting cache. The paper's look-up cost
// is dominated by index-store round trips (the "DynamoDB get" bar of
// Figure 9b/c), and real workloads hit a small set of keys — element labels
// and frequent words — over and over. Caching the *decoded* postings of a
// (table, key, kind) triple removes both the store round trip and the
// decode work for repeated look-ups.
//
// Coherence with the cost model: a cache hit issues no store request, so it
// must contribute nothing to GetOps, GetTime or BytesFetched — the billed
// quantities of Section 7. Hits, misses and evictions are reported
// separately through LookupStats so experiments can tell the two apart.
//
// Coherence with writers: WriteExtraction and DeleteDocument invalidate
// every (table, key) they touch after mutating the store, so a subsequent
// look-up refetches fresh postings. Cached postings are shared read-only
// between look-ups and must not be mutated by readers.

// cacheKey identifies one cached read: a hash key of a table, decoded under
// one posting kind.
type cacheKey struct {
	table string
	key   string
	kind  PostingKind
	// ver is the key's write-buffer overlay stamp when the cache fronts a
	// mutable corpus (0 otherwise, and for keys no mutation ever touched).
	// A replace entry or a compaction fold advances the stamp, so reads
	// pinned after the mutation key a fresh entry while reads pinned
	// before keep hitting the old one — version coherence without
	// explicit invalidation. Live tombstones deliberately do not advance
	// the stamp: deletions are subtracted from the shared carrier entry
	// at posting-decode time.
	ver uint64
}

// cacheEntry is one resident posting set with its approximate byte cost.
type cacheEntry struct {
	key      cacheKey
	postings map[string]*Posting
	bytes    int64
}

// cacheShard is an independently locked LRU over a slice of the key space.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	budget  int64
}

// cacheShards is fixed so that the shard of a key is a pure function of the
// key; 16 spreads contention well past the worker-pool sizes used here.
const cacheShards = 16

// DefaultCacheBytes is the capacity used when NewPostingCache is given a
// non-positive budget.
const DefaultCacheBytes = 64 << 20

// PostingCache is a size-bounded, sharded LRU cache of decoded index
// postings, keyed by (table, key, kind). It is safe for concurrent use.
// A single cache must only ever front a single store: keys do not embed a
// store identity.
type PostingCache struct {
	shards [cacheShards]cacheShard
}

// NewPostingCache returns a cache bounded to roughly maxBytes of decoded
// postings (<=0 selects DefaultCacheBytes). The bound is split evenly
// across shards, so a single entry larger than maxBytes/16 is never
// retained.
func NewPostingCache(maxBytes int64) *PostingCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &PostingCache{}
	per := maxBytes / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{entries: make(map[cacheKey]*list.Element), lru: list.New(), budget: per}
	}
	return c
}

// shardOf hashes the key to its shard (FNV-1a over the fields).
func (c *PostingCache) shardOf(k cacheKey) *cacheShard {
	h := uint32(2166136261)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
	}
	mix(k.table)
	h ^= uint32(k.kind)
	h *= 16777619
	mix(k.key)
	return &c.shards[h%cacheShards]
}

// get returns the cached postings for the key, or (nil, false). The
// returned map is shared: callers must treat it as immutable.
func (c *PostingCache) get(k cacheKey) (map[string]*Posting, bool) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	el, ok := sh.entries[k]
	if ok {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).postings, true
}

// put inserts (or replaces) the postings of a key and returns how many
// entries were evicted to make room.
func (c *PostingCache) put(k cacheKey, postings map[string]*Posting) int64 {
	e := &cacheEntry{key: k, postings: postings, bytes: postingsBytes(k, postings)}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if old, ok := sh.entries[k]; ok {
		sh.bytes -= old.Value.(*cacheEntry).bytes
		sh.lru.Remove(old)
		delete(sh.entries, k)
	}
	var evicted int64
	if e.bytes <= sh.budget {
		sh.entries[k] = sh.lru.PushFront(e)
		sh.bytes += e.bytes
		for sh.bytes > sh.budget {
			back := sh.lru.Back()
			if back == nil || back.Value.(*cacheEntry) == e {
				break
			}
			v := back.Value.(*cacheEntry)
			sh.lru.Remove(back)
			delete(sh.entries, v.key)
			sh.bytes -= v.bytes
			evicted++
		}
	}
	sh.mu.Unlock()
	return evicted
}

// Invalidate drops every cached kind of one (table, key) pair — at every
// overlay stamp, since a direct store write invalidates all versioned
// carriers of the key. Writers call it after mutating the store so readers
// refetch fresh postings.
func (c *PostingCache) Invalidate(table, key string) {
	for _, kind := range []PostingKind{URIPosting, PathPosting, IDPosting} {
		k := cacheKey{table: table, key: key, kind: kind}
		sh := c.shardOf(k)
		sh.mu.Lock()
		if el, ok := sh.entries[k]; ok {
			sh.bytes -= el.Value.(*cacheEntry).bytes
			sh.lru.Remove(el)
			delete(sh.entries, k)
		}
		// Versioned entries (mutable corpora) share the shard with the
		// unversioned one; sweep any stamp of this (table, key, kind).
		for vk, el := range sh.entries {
			if vk.table == k.table && vk.key == k.key && vk.kind == k.kind {
				sh.bytes -= el.Value.(*cacheEntry).bytes
				sh.lru.Remove(el)
				delete(sh.entries, vk)
			}
		}
		sh.mu.Unlock()
	}
}

// InvalidateExtraction drops every (table, key) an extraction touches; it
// is the invalidation hook WriteExtraction and DeleteDocument call.
func (c *PostingCache) InvalidateExtraction(ex *Extraction) {
	if c == nil || ex == nil {
		return
	}
	for table, entries := range ex.Tables {
		for _, e := range entries {
			c.Invalidate(table, e.Key)
		}
	}
}

// Len returns the number of resident entries.
func (c *PostingCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// postingsBytes approximates the resident size of a decoded posting set:
// key bytes, URI bytes, path bytes, and the identifiers. A blocked posting
// is charged its compressed payload, its headers, and the decoded width of
// every identifier — blocks decode lazily but the memo retains them, so
// the eventual resident size is what the budget must account for (and the
// charge stays a pure function of the content, keeping eviction, and the
// LookupStats that report it, deterministic).
func postingsBytes(k cacheKey, postings map[string]*Posting) int64 {
	n := int64(len(k.table) + len(k.key) + 1)
	for uri, p := range postings {
		n += int64(len(uri) + len(p.URI))
		for _, v := range p.PathVals {
			n += int64(len(v))
		}
		n += int64(p.IDCount()) * 12 // pre, post, depth int32
		if p.blocked != nil {
			n += p.blocked.PayloadBytes() + int64(p.blocked.Blocks())*48
		}
		n += 48 // map slot and struct overhead
	}
	return n
}
