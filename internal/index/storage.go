package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/idblock"
	"repro/internal/resilience"
	"repro/internal/xmltree"
)

// ItemRangeKey derives the range key of an index item deterministically
// from its identity: the document it came from, the table and hash key it
// lives under, and the ordinal of the value chunk when an entry is split
// across several items. The paper uses random UUIDs here (Section 6) so
// that concurrent virtual machines never overwrite each other; content
// derivation keeps that property — distinct documents and distinct chunks
// hash to distinct keys — while additionally making writes idempotent:
// when a crashed or redelivered indexing task re-extracts the same
// document, it produces byte-identical items under identical keys, so a
// re-put overwrites instead of duplicating. That turns SQS's at-least-once
// delivery into exactly-once index contents with no coordination.
//
// The key is the first 16 bytes of a domain-separated SHA-256, hex encoded
// — the same width as the UUIDs it replaces. The hashed pre-image is each of
// uri, table and key behind its length, then the ordinal, all big-endian
// uint32; it is built in one buffer and hashed in one call, so the only
// allocation is the returned string.
func ItemRangeKey(uri, table, key string, ordinal int) string {
	var buf [256]byte
	return rangeKey(rangeKeyHead(buf[:0], uri, table), key, ordinal)
}

// rangeKeyHead appends the part of the pre-image that the items of one
// document under one table share.
func rangeKeyHead(dst []byte, uri, table string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(uri)))
	dst = append(dst, uri...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(table)))
	return append(dst, table...)
}

// rangeKey completes the pre-image in the spare capacity behind head (or in
// a new array if it does not fit) and returns the range key.
func rangeKey(head []byte, key string, ordinal int) string {
	pre := binary.BigEndian.AppendUint32(head, uint32(len(key)))
	pre = append(pre, key...)
	pre = binary.BigEndian.AppendUint32(pre, uint32(ordinal))
	sum := sha256.Sum256(pre)
	var text [32]byte
	hex.Encode(text[:], sum[:16])
	return string(text[:])
}

// CreateTables creates the strategy's tables on the store. It is a no-op
// for tables that already exist.
func CreateTables(store kv.Store, s Strategy) error {
	for _, t := range s.Tables() {
		if err := store.CreateTable(t); err != nil && !errors.Is(err, kv.ErrTableExists) {
			return err
		}
	}
	return nil
}

// LoadStats summarizes one document's index load.
type LoadStats struct {
	Entries  int
	Items    int   // store items written (|op(D,I)| contribution)
	Requests int   // batch API calls issued
	Bytes    int64 // payload bytes written
}

// OptionsFor returns extraction options suited to the store: binary
// compressed identifiers when the store accepts them, text otherwise, with
// value splitting under the store's item and value caps.
func OptionsFor(store kv.Store) Options {
	lim := store.Limits()
	opts := Options{BinaryIDs: lim.SupportsBinary}
	max := lim.MaxValueBytes
	if lim.MaxItemBytes > 0 && (max == 0 || lim.MaxItemBytes < max) {
		max = lim.MaxItemBytes
	}
	if max == 0 {
		max = 1 << 20
	}
	// Leave room for key, range key and attribute name in the item.
	opts.MaxValueBytes = int(max) - 512
	if opts.MaxValueBytes < 256 {
		opts.MaxValueBytes = int(max) * 3 / 4
	}
	return opts
}

// LoadDocument extracts the document's entries under the strategy and
// writes them to the store in batch puts, returning the modeled store
// latency and load statistics. Entries whose values exceed the store's item
// budget are split across several items whose range keys are derived
// deterministically from (document, table, key, chunk ordinal), so
// reloading the same document overwrites its items instead of duplicating
// them. Any caches fronting the store must be passed so their entries for
// the touched keys are invalidated.
func LoadDocument(store kv.Store, s Strategy, doc *xmltree.Document, opts Options, caches ...*PostingCache) (time.Duration, LoadStats, error) {
	ex := Extract(s, doc, opts)
	return WriteExtraction(store, ex, caches...)
}

// WriteExtraction writes a precomputed extraction to the store and
// invalidates the touched keys in the given posting caches (even on error,
// since a failed batch may have partially landed). Item range keys come
// from ItemRangeKey, making the write idempotent: repeating it — after a
// worker crash, a duplicated queue delivery, or a partially applied batch
// — converges to the same store contents.
func WriteExtraction(store kv.Store, ex *Extraction, caches ...*PostingCache) (time.Duration, LoadStats, error) {
	defer func() {
		for _, c := range caches {
			c.InvalidateExtraction(ex)
		}
	}()
	var (
		total time.Duration
		stats LoadStats
	)
	lim := store.Limits()
	batchLimit := lim.BatchPutItems
	if batchLimit <= 0 {
		batchLimit = 1
	}
	itemBudget := itemBudgetFor(lim)

	var batch []kv.Item
	flush := func(table string) error {
		if len(batch) == 0 {
			return nil
		}
		d, err := store.BatchPut(table, batch)
		if err != nil {
			return err
		}
		total += d
		stats.Requests++
		stats.Items += len(batch)
		for _, it := range batch {
			stats.Bytes += it.Size()
		}
		batch = batch[:0]
		return nil
	}

	for _, table := range sortedTables(ex) {
		stats.Entries += len(ex.Tables[table])
		for _, item := range tableItems(ex.URI, table, ex.Tables[table], itemBudget) {
			batch = append(batch, item)
			if len(batch) == batchLimit {
				if err := flush(table); err != nil {
					return total, stats, err
				}
			}
		}
		if err := flush(table); err != nil {
			return total, stats, err
		}
	}
	return total, stats, nil
}

// itemBudgetFor returns the per-item payload budget under which entry
// values are split into items, leaving headroom for keys and the attribute
// name. WriteExtraction and the BulkLoader share it so that both write
// paths generate byte-identical items under identical range keys.
func itemBudgetFor(lim kv.Limits) int64 {
	budget := int64(48 << 10)
	if lim.MaxItemBytes > 0 && lim.MaxItemBytes-512 < budget {
		budget = lim.MaxItemBytes - 512
	}
	return budget
}

// tableItems builds the store items of one document's entries under one
// table, in entry order: an entry's values are packed under the item budget
// into one item or several, and each item's range key is derived from
// (document, table, key, ordinal). The same entries always yield the same
// items, which is what makes every write path — per-document, bulk-loaded,
// or a retry of either — idempotent and mutually byte-identical. The items'
// Attrs and Values are capacity-limited sub-slices of one array each, and
// the range keys are hashed out of one buffer.
func tableItems(uri, table string, entries []Entry, itemBudget int64) []kv.Item {
	nValues := 0
	for _, e := range entries {
		nValues += len(e.Values)
	}
	items := make([]kv.Item, 0, len(entries))
	attrs := make([]kv.Attr, 0, len(entries))
	values := make([]kv.Value, 0, nValues)
	var buf [256]byte
	head := rangeKeyHead(buf[:0], uri, table)
	for _, e := range entries {
		avail := max(itemBudget-int64(len(e.Key)+len(uri)), 1)
		rest := e.Values
		// An entry without values still is one item: LU stores bare presence
		// this way.
		for ordinal := 0; ordinal == 0 || len(rest) > 0; ordinal++ {
			n := groupLen(rest, avail)
			start := len(values)
			for _, v := range rest[:n] {
				values = append(values, kv.Value(v))
			}
			rest = rest[n:]
			if len(attrs) == cap(attrs) {
				attrs = make([]kv.Attr, 0, len(entries)) // the items so far keep the full one
			}
			attrs = append(attrs, kv.Attr{Name: uri, Values: values[start:len(values):len(values)]})
			items = append(items, kv.Item{
				HashKey:  e.Key,
				RangeKey: rangeKey(head, e.Key, ordinal),
				Attrs:    attrs[len(attrs)-1 : len(attrs) : len(attrs)],
			})
		}
	}
	return items
}

// groupLen returns how many of the leading values go into the next item:
// as many as fit in avail bytes, and at least one, so a value larger than
// the budget rides alone instead of being dropped or cut.
func groupLen(values [][]byte, avail int64) int {
	var size int64
	for i, v := range values {
		if i > 0 && size+int64(len(v)) > avail {
			return i
		}
		size += int64(len(v))
	}
	return len(values)
}

// ExtractionItems returns the store items every write path would generate
// for the extraction, grouped by table and keyed by hash key — the exact
// items WriteExtraction and the BulkLoader ship, byte for byte, range keys
// included. The mutable warehouse records them in its per-document
// manifest: the write buffer serves them to snapshot reads, and the
// compactor later folds them into the main store, so a folded store is
// indistinguishable from a direct-write one.
func ExtractionItems(lim kv.Limits, ex *Extraction) map[string]map[string][]kv.Item {
	itemBudget := itemBudgetFor(lim)
	out := make(map[string]map[string][]kv.Item, len(ex.Tables))
	for _, table := range sortedTables(ex) {
		byKey := make(map[string][]kv.Item, len(ex.Tables[table]))
		items := tableItems(ex.URI, table, ex.Tables[table], itemBudget)
		for len(items) > 0 {
			// An extraction has one entry per key, and an entry's items are
			// adjacent.
			n := 1
			for n < len(items) && items[n].HashKey == items[0].HashKey {
				n++
			}
			byKey[items[0].HashKey] = items[:n:n]
			items = items[n:]
		}
		out[table] = byKey
	}
	return out
}

func sortedTables(ex *Extraction) []string {
	tables := make([]string, 0, len(ex.Tables))
	for t := range ex.Tables {
		tables = append(tables, t)
	}
	// Map order is random; entries were appended per table in sorted key
	// order, and table count is at most two, so a simple sort suffices.
	if len(tables) == 2 && tables[0] > tables[1] {
		tables[0], tables[1] = tables[1], tables[0]
	}
	return tables
}

// PostingKind selects which sub-index a read targets.
type PostingKind uint8

const (
	// URIPosting reads bare URI entries (LU).
	URIPosting PostingKind = iota
	// PathPosting reads label-path entries (LUP / 2LUPI's first table).
	PathPosting
	// IDPosting reads identifier entries (LUI / 2LUPI's second table).
	IDPosting
)

// Posting is the merged index content of one key for one document.
//
// Identifier postings come in one of two interchangeable shapes. When every
// stored value of the (key, URI) pair decoded as a blocked blob whose
// segments tile the pre axis without overlap — the invariant of every write
// path — blocked holds the lazy set and IDs stays nil: only block headers
// were decoded, and payloads decode on demand (memoized inside the Set, so
// a cached Posting keeps its decoded blocks across look-ups). Otherwise —
// headerless streams, text values, mixed segments — IDs is materialized
// eagerly in pre order, and IDSet wraps it as a single pre-decoded block on
// first use, so join kernels see one interface either way. The wrap is
// deferred and memoized because most decoded postings never reach a join:
// their URIs fall out of the candidate intersection first.
type Posting struct {
	URI string
	// PathVals holds the raw stored path values — plain path strings or
	// front-coded blocks, validated at decode time — so the LUP matcher
	// can run over the compressed form without materializing every path.
	// The slices alias the decoded store values and must not be mutated.
	PathVals [][]byte
	IDs      []xmltree.NodeID

	blocked *idblock.Set                // lazy set decoded from blocked blobs
	wrapped atomic.Pointer[idblock.Set] // memoized single-block wrap of IDs
}

// IDCount returns the identifier count without decoding any payload.
func (p *Posting) IDCount() int {
	if p.IDs != nil {
		return len(p.IDs)
	}
	return p.blocked.Len()
}

// IDSet returns the blocked view of the posting's identifiers (nil when
// the posting has none). Postings are shared between concurrent look-ups
// and with the cache, so the eager-side wrap is memoized through an atomic
// — racing callers may build it twice but all end up with one winner.
func (p *Posting) IDSet() *idblock.Set {
	if p.blocked != nil {
		return p.blocked
	}
	if len(p.IDs) == 0 {
		return nil
	}
	if s := p.wrapped.Load(); s != nil {
		return s
	}
	p.wrapped.CompareAndSwap(nil, idblock.FromIDs(p.IDs))
	return p.wrapped.Load()
}

// DecodedIDs materializes the posting's identifiers in pre order. The
// returned slice is shared — with the cache, and with other look-ups — and
// must not be mutated.
func (p *Posting) DecodedIDs() ([]xmltree.NodeID, error) {
	if p.IDs != nil {
		return p.IDs, nil
	}
	return p.blocked.All()
}

// DecodedPaths materializes the posting's path list as strings. The
// matcher path (lookupLUP) never needs this; it exists for callers that
// want the expanded list — tests, debugging, differentials.
func (p *Posting) DecodedPaths() ([]string, error) {
	var out []string
	for _, v := range p.PathVals {
		paths, err := DecodePathValue(v)
		if err != nil {
			return nil, err
		}
		out = append(out, paths...)
	}
	return out, nil
}

// ReadKeys batch-fetches several hash keys and returns per-key postings.
// Keys resident in opts' cache are served from it without touching the
// store; the misses are split into store-batch-limit chunks fanned out over
// a bounded worker pool (opts' Concurrency), with items decoded on the
// fetch goroutines. The result and the billed statistics are identical to
// a sequential read: per-chunk latencies and byte counts are summed in
// chunk order, and key sets of distinct chunks are disjoint. The statistics
// are the read's share of a look-up's (TwigCandidates stays zero): only keys
// actually fetched from the store count toward GetOps, GetTime and
// BytesFetched.
func ReadKeys(store kv.Store, table string, keys []string, kind PostingKind, binaryIDs bool, opts ...LookupOptions) (out map[string]map[string]*Posting, rs LookupStats, err error) {
	opt := resolveLookup(opts)
	// The query's modeled-time budget is charged once, on exit, with the
	// summed store latency: chunks never observe each other's charges, so
	// the read's outcome is identical at any Concurrency level.
	defer func() {
		resilience.FromContext(opt.Ctx).Charge(rs.GetTime)
	}()
	retrySrc, _ := store.(kv.RetryStatsSource)
	var retriesBefore int64
	if retrySrc != nil {
		retriesBefore = retrySrc.RetryStats().Retries
	}
	defer func() {
		if retrySrc != nil {
			rs.StoreRetries = retrySrc.RetryStats().Retries - retriesBefore
		}
	}()
	out = make(map[string]map[string]*Posting, len(keys))

	// Snapshot reads: capture the write-buffer overlay BEFORE touching the
	// cache or the store. A concurrent compaction fold that lands after
	// this point is harmless — the captured overlay still wins wholesale
	// for its owners, and a fold that landed before left the main store
	// (and a monotonically advanced stamp) already carrying its state.
	var overlays map[string]kv.Overlay
	if opt.View != nil {
		overlays = opt.View.Capture(table, keys)
	}
	stampOf := func(k string) uint64 { return overlays[k].Stamp }

	fetch := keys
	if opt.Cache != nil {
		fetch = make([]string, 0, len(keys))
		for _, k := range keys {
			if p, ok := opt.Cache.get(cacheKey{table: table, key: k, kind: kind, ver: stampOf(k)}); ok {
				out[k] = p
				rs.CacheHits++
			} else {
				rs.CacheMisses++
				fetch = append(fetch, k)
			}
		}
	}
	if len(fetch) == 0 {
		return applyViewTombstones(out, overlays, kind, binaryIDs, rs)
	}

	lim := store.Limits().BatchGetKeys
	if lim <= 0 {
		lim = 1
	}
	chunks := (len(fetch) + lim - 1) / lim
	type chunkResult struct {
		postings  map[string]map[string]*Posting
		d         time.Duration
		bytes     int64
		gets      int64 // keys billed against the store
		coalesced int64 // keys served by an in-flight twin fetch
		fill      bool  // whether this call fills the cache (leader side)
		err       error
	}
	results := make([]chunkResult, chunks)
	fetchChunk := func(ci int) chunkResult {
		start := ci * lim
		end := start + lim
		if end > len(fetch) {
			end = len(fetch)
		}
		chunk := fetch[start:end]
		run := func() (any, time.Duration, error) {
			got, d, err := store.BatchGet(opt.Ctx, table, chunk)
			if err != nil {
				return nil, d, err
			}
			fc := &flightChunk{postings: make(map[string]map[string]*Posting, len(got))}
			for _, k := range chunk {
				items := got[k]
				for _, it := range items {
					fc.bytes += it.Size()
				}
				// Replacement contributions from the write buffer supersede
				// the owner's main-store items; they come from memory and
				// bill nothing.
				items = applyReplaces(items, overlays[k])
				if len(items) == 0 {
					continue
				}
				postings, err := decodeItems(items, kind, binaryIDs)
				if err != nil {
					return nil, d, fmt.Errorf("key %q: %w", k, err)
				}
				if opt.Cache != nil {
					// Before the postings are shared with coalesced
					// waiters: the cache fill below keeps them.
					detachPostings(postings)
				}
				fc.postings[k] = postings
			}
			return fc, d, nil
		}
		var (
			v      any
			d      time.Duration
			leader = true
			err    error
		)
		if opt.Flight == nil {
			v, d, err = run()
		} else {
			v, d, leader, err = opt.Flight.Do(flightKey(table, kind, binaryIDs, chunk, stampOf), run)
		}
		if err != nil {
			return chunkResult{err: err}
		}
		fc := v.(*flightChunk)
		cr := chunkResult{postings: fc.postings, d: d, fill: leader}
		if leader {
			cr.bytes = fc.bytes
			cr.gets = int64(len(chunk))
		} else {
			// A coalesced chunk shares the leader's postings and waits out
			// the leader's modeled latency, but bills nothing.
			cr.coalesced = int64(len(chunk))
		}
		return cr
	}

	if workers := min(opt.workers(), chunks); workers <= 1 {
		for ci := range results {
			results[ci] = fetchChunk(ci)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ci := range idx {
					results[ci] = fetchChunk(ci)
				}
			}()
		}
		for ci := 0; ci < chunks; ci++ {
			idx <- ci
		}
		close(idx)
		wg.Wait()
	}

	for _, cr := range results {
		if cr.err != nil {
			return nil, rs, cr.err
		}
		rs.GetTime += cr.d
		rs.BytesFetched += cr.bytes
		rs.GetOps += cr.gets
		rs.CoalescedKeys += cr.coalesced
		for k, postings := range cr.postings {
			out[k] = postings
			if cr.fill && opt.Cache != nil {
				rs.CacheEvictions += opt.Cache.put(cacheKey{table: table, key: k, kind: kind, ver: stampOf(k)}, postings)
			}
		}
	}
	return applyViewTombstones(out, overlays, kind, binaryIDs, rs)
}

// applyViewTombstones subtracts the captured tombstones from the assembled
// postings on the way out — after cache fills, so the cache keeps the
// version-agnostic carrier and each pinned view applies its own deletes at
// decode time.
func applyViewTombstones(out map[string]map[string]*Posting, overlays map[string]kv.Overlay, kind PostingKind, binaryIDs bool, rs LookupStats) (map[string]map[string]*Posting, LookupStats, error) {
	for k, ov := range overlays {
		postings, ok := out[k]
		if !ok || len(ov.Tombstones) == 0 {
			continue
		}
		filtered, err := applyTombstones(postings, ov, kind, binaryIDs)
		if err != nil {
			return nil, rs, err
		}
		out[k] = filtered
	}
	return out, rs, nil
}

// flightChunk is the unit shared through a single-flight group: the decoded
// postings of one store chunk, with its billed payload size. Waiters receive
// the leader's pointer, so a coalesced cache fill hands every caller the
// same parsed structures.
type flightChunk struct {
	postings map[string]map[string]*Posting
	bytes    int64
}

// flightKey identifies one chunk fetch for coalescing. Two concurrent
// fetches coalesce only when they would issue byte-identical requests and
// decode them identically; like a PostingCache, one Flight group must not
// front two different stores. Each key's overlay stamp is part of the
// identity, so look-ups pinned on either side of a mutation never share a
// leader's postings.
func flightKey(table string, kind PostingKind, binaryIDs bool, chunk []string, stampOf func(string) uint64) string {
	var b strings.Builder
	b.WriteString(table)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(kind)))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(binaryIDs))
	for _, k := range chunk {
		b.WriteByte(0)
		b.WriteString(k)
		if s := stampOf(k); s != 0 {
			b.WriteByte('@')
			b.WriteString(strconv.FormatUint(s, 10))
		}
	}
	return b.String()
}

func decodeItems(items []kv.Item, kind PostingKind, binaryIDs bool) (map[string]*Posting, error) {
	// Most items carry one URI attribute, so the item count is a good size
	// hint for the posting map.
	postings := make(map[string]*Posting, len(items))
	// Identifier values stay lazy when they can: blocked blobs contribute
	// parsed Sets (headers only), everything else decodes eagerly.
	var segs map[string][]*idblock.Set
	for _, it := range items {
		for _, a := range it.Attrs {
			p, ok := postings[a.Name]
			if !ok {
				p = &Posting{URI: a.Name}
				postings[a.Name] = p
			}
			switch kind {
			case URIPosting:
				// Presence is all that matters.
			case PathPosting:
				for _, v := range a.Values {
					// Validate now, retain raw: corrupt values fail here —
					// where the old eager decode failed — and matching
					// later runs on the compressed form.
					if err := ValidatePathValue(v); err != nil {
						return nil, err
					}
					p.PathVals = append(p.PathVals, v)
				}
			case IDPosting:
				for _, v := range a.Values {
					set, ids, err := DecodeIDSet(v, binaryIDs)
					if err != nil {
						return nil, err
					}
					switch {
					case set != nil:
						if segs == nil {
							segs = make(map[string][]*idblock.Set)
						}
						segs[a.Name] = append(segs[a.Name], set)
					case p.IDs == nil:
						// The decode owns the slice; single-value entries —
						// the common case — adopt it without a copy.
						p.IDs = ids
					default:
						p.IDs = append(p.IDs, ids...)
					}
				}
			}
		}
	}
	if kind == IDPosting {
		for uri, p := range postings {
			if err := finishIDPosting(p, segs[uri]); err != nil {
				return nil, err
			}
		}
	}
	return postings, nil
}

// detachPostings copies what one key's decoded postings still share with
// the store: the raw path values (one buffer for the key) and the encoded
// payloads of lazy identifier sets. A Get returns read-only views of the
// store's memory, which is fine for the length of a request; postings that
// go into the cache would keep whole store chunks alive for bytes the
// cache's budget does not count.
func detachPostings(postings map[string]*Posting) {
	n := 0
	for _, p := range postings {
		for _, v := range p.PathVals {
			n += len(v)
		}
	}
	buf := make([]byte, 0, n)
	for _, p := range postings {
		for i, v := range p.PathVals {
			buf = append(buf, v...)
			p.PathVals[i] = buf[len(buf)-len(v) : len(buf) : len(buf)]
		}
		p.blocked.Detach()
	}
}

// finishIDPosting fixes a decoded identifier posting into its final shape.
// All-blocked segments that tile the pre axis merge into one lazy Set —
// items arrive ordered by range key, not content, and Merge restores pre
// order from the headers alone. Anything else (headerless values,
// overlapping segments) materializes: decode everything, restore pre order,
// and wrap the result as a single-block Set so the join kernels are
// format-blind.
func finishIDPosting(p *Posting, segs []*idblock.Set) error {
	if p.IDs == nil {
		if merged, ok := idblock.Merge(segs); ok {
			p.blocked = merged
			return nil
		}
	}
	for _, s := range segs {
		ids, err := s.All()
		if err != nil {
			return err
		}
		p.IDs = append(p.IDs, ids...)
	}
	if !idblock.IsSorted(p.IDs) {
		sortIDs(p.IDs)
	}
	return nil
}

func sortIDs(ids []xmltree.NodeID) {
	// Items arrive ordered by UUID range key, not by content; restore the
	// pre order the twig join requires.
	sort.Slice(ids, func(i, j int) bool { return ids[i].Pre < ids[j].Pre })
}
