package index

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/idblock"
	"repro/internal/xmltree"
)

// ItemRangeKey derives the range key of an index item deterministically
// from its identity within its hash key: the document it came from, the
// table, and the ordinal of the value chunk when an entry is split across
// several items. The paper uses random UUIDs here (Section 6) so that
// concurrent virtual machines never overwrite each other; that needs
// uniqueness only among the items of one hash key, because the store's
// primary key is (hash key, range key). Content derivation keeps that
// property — distinct documents and distinct chunks hash to distinct keys —
// while additionally making writes idempotent: when a crashed or
// redelivered indexing task re-extracts the same document, it produces
// byte-identical items under identical keys, so a re-put overwrites instead
// of duplicating. That turns SQS's at-least-once delivery into exactly-once
// index contents with no coordination.
//
// The hash key is not part of the pre-image, so the items of one document
// under one table share one key per ordinal: a write hashes once per
// (document, table, ordinal), not once per item. The key is the first 16
// bytes of a SHA-256, hex encoded — the same width as the UUIDs it
// replaces. The hashed pre-image is uri and table, each behind its length,
// then the ordinal, all big-endian uint32; it is built in one buffer and
// hashed in one call, so the only allocation is the returned string.
func ItemRangeKey(uri, table string, ordinal int) string {
	var buf [256]byte
	return rangeKey(rangeKeyHead(buf[:0], uri, table), ordinal)
}

// packOrdinal is the ordinal a pack of two or more documents' postings is
// keyed by (DESIGN §5e): its first member's range key at an ordinal no
// chunk reaches, hashed as 0xFFFFFFFF. A pack of one is the per-document
// item, at ordinal 0.
const packOrdinal = -1

// packRangeKey returns the range key of a pack of members contributions
// whose first member, in URI order, is uri.
func packRangeKey(uri, table string, members int) string {
	if members > 1 {
		return ItemRangeKey(uri, table, packOrdinal)
	}
	return ItemRangeKey(uri, table, 0)
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
func rangeKey(head []byte, ordinal int) string {
	pre := binary.BigEndian.AppendUint32(head, uint32(ordinal))
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
// deterministically from (document, table, chunk ordinal), so
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
	batchLimit := max(lim.BatchPutItems, 1)
	itemBudget := itemBudgetFor(lim)

	var items []kv.Item
	for _, table := range sortedTables(ex) {
		stats.Entries += len(ex.Tables[table])
		items = appendDocItems(items[:0], ex.URI, table, ex.Tables[table], itemBudget)
		for rest := items; len(rest) > 0; {
			n := min(batchLimit, len(rest))
			d, err := store.BatchPut(table, rest[:n:n])
			if err != nil {
				return total, stats, err
			}
			total += d
			stats.Requests++
			stats.Items += n
			for _, it := range rest[:n] {
				stats.Bytes += it.Size()
			}
			rest = rest[n:]
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

// appendDocItems appends the store items of one document's entries under
// one table to dst, in entry order, and returns the extended slice: an
// entry's values are packed under the item budget into one item or several,
// and each item's range key is derived from (document, table, ordinal). The
// same entries always yield the same items, which is what makes every write
// path — per-document, bulk-loaded, or a retry of either — idempotent and
// mutually byte-identical. The new items' Attrs and Values are
// capacity-limited sub-slices of one array each, and the items of one
// ordinal share one range key string: ordinal 0's is hashed once per call,
// a higher ordinal's the first time an entry reaches it.
func appendDocItems(dst []kv.Item, uri, table string, entries []Entry, itemBudget int64) []kv.Item {
	if len(entries) == 0 {
		return dst
	}
	nValues := 0
	for _, e := range entries {
		nValues += len(e.Values)
	}
	items := slices.Grow(dst, len(entries))
	attrs := make([]kv.Attr, 0, len(entries))
	values := make([]kv.Value, 0, nValues)
	var buf [256]byte
	head := rangeKeyHead(buf[:0], uri, table)
	var keyBuf [4]string
	keys := append(keyBuf[:0], rangeKey(head, 0)) // by ordinal
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
			if ordinal == len(keys) {
				keys = append(keys, rangeKey(head, ordinal))
			}
			items = append(items, kv.Item{
				HashKey:  e.Key,
				RangeKey: keys[ordinal],
				Attrs:    attrs[len(attrs)-1 : len(attrs) : len(attrs)],
			})
		}
	}
	return items
}

// groupLen returns how many of the leading values go into the next item:
// as many as fit in avail bytes, and at least one, so a value larger than
// the budget rides alone instead of being dropped or cut.
func groupLen[V ~[]byte](values []V, avail int64) int {
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
// for the extraction, one slab per table — the exact items WriteExtraction
// and the BulkLoader ship, byte for byte, range keys included. A slab is in
// the extraction's key order, sorted by hash key, and a key's items are
// adjacent. The mutable warehouse keeps the slabs as its per-document
// history: the write buffer serves them to snapshot reads, and the
// compactor later folds them into the main store, so a folded store is
// indistinguishable from a direct-write one.
func ExtractionItems(lim kv.Limits, ex *Extraction) map[string][]kv.Item {
	itemBudget := itemBudgetFor(lim)
	out := make(map[string][]kv.Item, len(ex.Tables))
	for table, entries := range ex.Tables {
		out[table] = appendDocItems(nil, ex.URI, table, entries, itemBudget)
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

// Posting is the merged index content of one key for one document, built
// from the URI's rows of a PostingList when a look-up first asks for it.
//
// Identifier postings come in three shapes, all read through IDCount, IDSet
// and DecodedIDs:
//
//   - blocked: every stored value of the (key, URI) pair is a blocked blob
//     and the segments tile the pre axis without overlap — the invariant of
//     every write path. Only block headers were decoded; payloads decode on
//     demand, memoized inside the Set.
//   - raw: the pair stored one headerless stream (a small set, the common
//     case). The stream was validated and its triples counted when the key
//     was read; it decodes on first use, into an exact-size slice.
//   - eager: anything else — text values, several streams, blocked segments
//     mixed with streams or overlapping. The identifiers were decoded and
//     put in pre order when the posting was built.
//
// Raw and eager identifiers are published through wrapped as one
// pre-decoded block, so join kernels see one interface either way. The raw
// decode is deferred to the twig join and memoized there, so a posting
// shared through the cache decodes once, whichever look-up joins it first.
type Posting struct {
	URI string
	// PathVals holds the raw stored path values — plain path strings or
	// front-coded blocks, validated when the key was read — so the LUP matcher
	// can run over the compressed form without materializing every path.
	// The slices alias the decoded store values and must not be mutated.
	PathVals [][]byte

	raw     []byte                      // a raw posting's validated stream
	n       int                         // identifier count unless blocked
	blocked *idblock.Set                // lazy set decoded from blocked blobs
	wrapped atomic.Pointer[idblock.Set] // raw or eager identifiers, one block
	scoped  bool                        // carved from a look-up's scratch
}

// setIDs makes p an eager posting over ids, which must be in pre order.
func (p *Posting) setIDs(ids []xmltree.NodeID) {
	p.raw, p.n = nil, len(ids)
	p.wrapped.Store(idblock.FromIDs(ids))
}

// IDCount returns the identifier count without decoding any payload.
func (p *Posting) IDCount() int {
	if p.blocked != nil {
		return p.blocked.Len()
	}
	return p.n
}

// IDSet returns the blocked view of the posting's identifiers (nil when
// the posting has none). Postings are shared between concurrent look-ups
// and with the cache, so a raw posting's decode is memoized through an
// atomic — racing callers may decode it twice but all end up with one
// winner.
func (p *Posting) IDSet() *idblock.Set {
	s, _ := p.idSet(nil)
	return s
}

// idSet is IDSet, also telling whether this call decoded a raw stream (the
// memo was empty when it looked). A posting carved from a look-up's scratch
// decodes into a, that scratch's arena; any other decodes on the heap,
// since the cache may share it.
func (p *Posting) idSet(a *idblock.Arena) (*idblock.Set, bool) {
	if p.blocked != nil {
		return p.blocked, false
	}
	if s := p.wrapped.Load(); s != nil || p.n == 0 {
		return s, false
	}
	if !p.scoped {
		a = nil
	}
	ids := mustDecodeStream(p.raw, p.n, a)
	if !idblock.IsSorted(ids) {
		sortIDs(ids)
	}
	p.wrapped.CompareAndSwap(nil, a.FromIDs(ids))
	return p.wrapped.Load(), true
}

// DecodedIDs materializes the posting's identifiers in pre order. The
// returned slice is shared — with the cache, and with other look-ups — and
// must not be mutated.
func (p *Posting) DecodedIDs() ([]xmltree.NodeID, error) {
	if p.blocked != nil {
		return p.blocked.All()
	}
	s := p.IDSet()
	if s == nil {
		return nil, nil
	}
	return s.Block(0) // the one pre-decoded block, no copy
}

// ReadKeys batch-fetches several hash keys and returns each key's posting
// list. Keys resident in opts' cache are served from it without touching
// the store; the misses are read in store-batch-limit chunks, one after
// another on the caller's goroutine, with records decoded as the store's
// read hands them over. The statistics are the read's share of a
// look-up's (TwigCandidates stays zero): only keys actually fetched from the
// store count toward GetOps, GetTime and BytesFetched. A key without records
// has no list.
//
// The lists a read decodes are carved from opts' scratch, when a look-up
// reads into its own memory, unless the cache is to keep them.
func ReadKeys(store kv.Store, table string, keys []string, kind PostingKind, binaryIDs bool, opts ...LookupOptions) (out map[string]*PostingList, rs LookupStats, err error) {
	opt := resolveLookup(opts)
	sc := opt.scratch
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
	lists := sc.listSlice(len(keys)) // in keys' order, nil for a key without records

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

	// fetch are the keys to read; the i-th is keys[at[i]], or keys[i] when
	// at is nil.
	fetch, at := keys, []int32(nil)
	if opt.Cache != nil {
		fetch, at = make([]string, 0, len(keys)), make([]int32, 0, len(keys))
		for i, k := range keys {
			if l, ok := opt.Cache.get(cacheKey{table: table, key: k, kind: kind, ver: stampOf(k)}); ok {
				lists[i] = l
				rs.CacheHits++
			} else {
				rs.CacheMisses++
				fetch = append(fetch, k)
				at = append(at, int32(i))
			}
		}
		// The cache keeps what the read decodes: the heap's.
		sc = nil
	}
	if len(fetch) == 0 {
		return byKey(keys, lists, overlays, rs)
	}
	keyOf := func(fi int) int {
		if at == nil {
			return fi
		}
		return int(at[fi])
	}

	lim := store.Limits().BatchGetKeys
	if lim <= 0 {
		lim = 1
	}
	// Every chunk is read, even after one failed, so a failed read bills
	// what a whole one does; the first error in chunk order is the read's,
	// with the statistics and cache fills of the chunks before it.
	var firstErr error
	for start := 0; start < len(fetch); start += lim {
		chunk := fetch[start:min(start+lim, len(fetch))]
		var bytes int64
		var decodeErr error
		next := 0 // where k is when the store visits in request order
		d, err := store.Read(opt.Ctx, table, chunk, func(k string, recs *kv.Records) {
			bytes += recs.Tally().Bytes
			if decodeErr != nil {
				return
			}
			j := next
			if j >= len(chunk) || chunk[j] != k {
				j = slices.Index(chunk, k)
			}
			next = j + 1
			// Replacement contributions from the write buffer supersede the
			// owner's main-store records; they come from memory and bill
			// nothing.
			l, err := decodeKey(recs, overlays[k].Replaces, kind, binaryIDs, sc)
			if err != nil {
				decodeErr = fmt.Errorf("key %q: %w", k, err)
				return
			}
			if l == nil {
				return
			}
			if opt.Cache != nil {
				// The cache keeps the list beyond this read.
				l.detach()
			}
			lists[keyOf(start+j)] = l
		})
		if err == nil {
			err = decodeErr
		}
		if firstErr != nil {
			continue
		}
		if err != nil {
			firstErr = err
			continue
		}
		rs.GetTime += d
		rs.BytesFetched += bytes
		rs.GetOps += int64(len(chunk))
		if opt.Cache == nil {
			continue
		}
		for fi := start; fi < start+len(chunk); fi++ {
			l := lists[keyOf(fi)]
			if l == nil {
				continue
			}
			evicted, err := opt.Cache.put(cacheKey{table: table, key: fetch[fi], kind: kind, ver: stampOf(fetch[fi])}, l)
			if err != nil {
				firstErr = fmt.Errorf("key %q: %w", fetch[fi], err)
				break
			}
			rs.CacheEvictions += evicted
		}
	}
	if firstErr != nil {
		return nil, rs, firstErr
	}
	return byKey(keys, lists, overlays, rs)
}

// byKey maps each key to its list, with the captured tombstones subtracted
// on the way out — after cache fills, so the cache keeps the
// version-agnostic carrier and each pinned view applies its own deletes at
// read time.
func byKey(keys []string, lists []*PostingList, overlays map[string]kv.Overlay, rs LookupStats) (map[string]*PostingList, LookupStats, error) {
	out := make(map[string]*PostingList, len(keys))
	for i, k := range keys {
		l := lists[i]
		if l == nil {
			continue
		}
		if ov := overlays[k]; len(ov.Tombstones) > 0 {
			var err error
			if l, err = applyTombstones(l, ov); err != nil {
				return nil, rs, err
			}
		}
		out[k] = l
	}
	return out, rs, nil
}

// PostingList is one key's index content under one posting kind, as a read
// decoded it: one row per stored value (one per attribute for URIPosting),
// sorted by URI, so a URI's rows are adjacent and in the order the records
// held them. A row points at its value in the fetched record bytes, or, for
// a list the cache keeps, in the list's own copy of them.
//
// Every value was validated and classified when the key was read: a
// corrupt value fails the read even if its URI never reaches a join. The
// Posting of a URI — a raw stream, a blocked set, eager identifiers or path
// values — is built from its rows only when a look-up asks for it, which it
// does for the URIs that survive its intersections. A list the cache holds
// is shared read-only between look-ups and memoizes what is built from it;
// any other is read by one look-up, which asks for each posting once.
type PostingList struct {
	rows      []uriRow
	uris      int // distinct URIs
	kind      PostingKind
	binaryIDs bool
	// charge is the list's cache charge before the key (postingsBytes),
	// counting each ID row as if it were its URI's only one; the URIs with
	// several ID rows are settled when the cache charges the list.
	charge int64

	mu     sync.Mutex
	shared bool               // the cache holds the list: memoize postings
	built  map[int32]*Posting // by the index of the URI's first row
}

// uriRow is one stored value of a URI. An empty v adds nothing to a posting:
// it is an empty stored value, or a presence row — every URIPosting row,
// and the row of an attribute without values.
type uriRow struct {
	uri string
	v   kv.Value
}

// Len returns the number of distinct URIs in the list (0 for a nil list).
func (l *PostingList) Len() int {
	if l == nil {
		return 0
	}
	return l.uris
}

// Posting returns the posting of uri, building it unless the list memoized
// it, or nil when the list does not hold uri. A posting of a cached list is
// shared with other look-ups and must not be mutated.
func (l *PostingList) Posting(uri string) (*Posting, error) {
	if l == nil {
		return nil, nil
	}
	i := l.seek(0, uri)
	if i == len(l.rows) || l.rows[i].uri != uri {
		return nil, nil
	}
	p, _, err := l.postingAt(i, nil)
	return p, err
}

// postingAt returns the posting of the URI whose first row is rows[i],
// also telling whether this call built it. A list the cache holds builds
// on the heap and memoizes; any other builds in sc (the heap when sc is
// nil).
func (l *PostingList) postingAt(i int, sc *scratch) (p *Posting, fresh bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.built[int32(i)]; p != nil {
		return p, false, nil
	}
	if l.shared {
		sc = nil
	}
	p, err = buildPosting(l.rows[i:l.runEnd(i)], l.kind, l.binaryIDs, sc)
	if err != nil || !l.shared {
		return p, err == nil, err
	}
	if l.built == nil {
		l.built = make(map[int32]*Posting)
	}
	l.built[int32(i)] = p
	return p, true, nil
}

// runEnd returns the index past the last row of the URI whose first row is
// rows[i].
func (l *PostingList) runEnd(i int) int {
	uri := l.rows[i].uri
	for i++; i < len(l.rows) && l.rows[i].uri == uri; i++ {
	}
	return i
}

// seek returns the index of the first row at or after from whose URI is not
// below uri, len(rows) if there is none. It gallops from from, so a merge
// that seeks forward through a list pays for the distance it moves, not for
// the list's length.
func (l *PostingList) seek(from int, uri string) int {
	rows := l.rows
	lo, hi := from, from // rows[lo-1] < uri whenever lo > from
	for step := 1; hi < len(rows) && rows[hi].uri < uri; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(rows))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid].uri < uri {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// detach readies a list for the cache: it copies the values the rows point
// at into one buffer of the list's own, and makes the list memoize the
// postings built from it. A read hands out read-only views of the store's
// memory, which is fine for the length of a request; a list that goes into
// the cache would keep whole store chunks alive for bytes the cache's
// budget does not count. It runs before any posting is built, so every
// posting built later aliases the copy.
func (l *PostingList) detach() {
	l.shared = true
	n := 0
	for _, r := range l.rows {
		n += len(r.v)
	}
	buf := make([]byte, 0, n)
	for i := range l.rows {
		if v := l.rows[i].v; len(v) > 0 {
			buf = append(buf, v...)
			l.rows[i].v = buf[len(buf)-len(v) : len(buf) : len(buf)]
		}
	}
}

// cacheCharge returns the list's cache charge before the key: the charge
// counted at decode time, with each URI that holds several identifier rows
// charged as its built posting, whose identifier count drops repeats and
// whose blocked segments may merge. Those URIs are rare — a URI in a pack
// and in a later per-document item, or a value split across items — and
// their postings are memoized like any other.
func (l *PostingList) cacheCharge() (int64, error) {
	n := l.charge
	if l.kind != IDPosting {
		return n, nil
	}
	for i := 0; i < len(l.rows); {
		end := l.runEnd(i)
		if end-i > 1 {
			for _, r := range l.rows[i:end] {
				iv, err := classifyIDValue(r.v, l.binaryIDs, nil)
				if err != nil {
					return 0, err
				}
				n -= iv.charge()
			}
			p, _, err := l.postingAt(i, nil)
			if err != nil {
				return 0, err
			}
			n += idCharge(p)
		}
		i = end
	}
	return n, nil
}

// decodeKey decodes one key's records into its posting list, with the
// overlay's replacement items merged in by range key (DESIGN §5s, "The
// overlay merge"): a record whose only attribute names a replaced owner is
// skipped, since replaces holds that owner's whole contribution. It returns
// nil when there is no record to decode; records without attributes decode
// to an empty list. The list and its rows, one slab sized from the tallies,
// are carved from sc (the heap when sc is nil); every value is validated
// here whatever its shape, and no posting is built.
func decodeKey(recs *kv.Records, replaces map[string][]kv.Item, kind PostingKind, binaryIDs bool, sc *scratch) (*PostingList, error) {
	sum := recs.Tally()
	var repl *kv.Records
	if len(replaces) > 0 {
		repl = replacementRecords(replaces)
		r := repl.Tally()
		sum.Items += r.Items
		sum.Attrs += r.Attrs
		sum.Values += r.Values
	}
	if sum.Items == 0 {
		return nil, nil
	}
	rows := sum.Values // a row per value, and one per value-less attribute
	if kind == URIPosting {
		rows = sum.Attrs
	}
	d := keyDecoder{l: sc.list(), sorted: true, arena: sc.arena()}
	d.l.kind, d.l.binaryIDs, d.l.rows = kind, binaryIDs, sc.rowSlice(int(rows))[:0]
	defer d.release()
	more := repl != nil && repl.Next()
	for recs.Next() && d.err == nil {
		for ; more && repl.RangeKey() < recs.RangeKey() && d.err == nil; more = repl.Next() {
			d.record(repl, nil)
		}
		d.record(recs, replaces)
	}
	for ; more && d.err == nil; more = repl.Next() {
		d.record(repl, nil)
	}
	if d.err != nil || !d.fed {
		return nil, d.err
	}
	l := d.l
	if !d.sorted {
		d.order()
		l.uris, d.uriCharge = 0, 0
		for i := 0; i < len(l.rows); i = l.runEnd(i) {
			l.uris++
			d.uriCharge += uriCharge(l.rows[i].uri)
		}
	}
	l.charge += d.uriCharge
	return l, nil
}

// replacementRecords returns a cursor over an overlay's replacement items
// in ascending range key order, the order the store hands out records in.
func replacementRecords(replaces map[string][]kv.Item) *kv.Records {
	var items []kv.Item
	for _, owned := range replaces {
		items = append(items, owned...)
	}
	slices.SortFunc(items, func(a, b kv.Item) int { return strings.Compare(a.RangeKey, b.RangeKey) })
	return kv.ItemRecords(items)
}

// keyDecoder is the state of one key's decode.
type keyDecoder struct {
	l      *PostingList
	arena  *idblock.Arena // what validating a blocked value parses into
	sorted bool           // the rows so far are in URI order
	// uriCharge is the cache charge of the URIs counted in l.uris; both
	// are final once the rows are sorted.
	uriCharge int64
	fed       bool // some record was decoded, if only one without attributes
	err       error

	// If the rows stop ascending, order needs the records' bounds: rec is
	// where the current record's rows start, and the scratch, taken when a
	// second record brings rows, holds every record's start. descends
	// notes a record whose own rows descend, which only a hand-made store
	// holds.
	rec      int
	scratch  *orderScratch
	descends bool
}

// orderScratch is the memory order works in, pooled so that ordering a
// key's rows allocates nothing.
type orderScratch struct {
	starts []int32 // where each record's rows start
	runs   []rowRun
	spare  []rowRun // sortRuns' second buffer
	rows   []uriRow
}

// rowRun is one record's rows, rows[start:end], with its first URI and
// that URI's abbreviated key.
type rowRun struct {
	uri        string
	key        uint64
	start, end int32
}

var orderScratches = sync.Pool{New: func() any { return new(orderScratch) }}

// order sorts the rows by URI, each URI's rows in record order. A record's
// rows ascend — a pack's attributes are in URI order, and a per-document
// item has one — so ordering the records by their first URI (ties by
// position) orders the rows whenever no two records' URIs interleave:
// packs of disjoint slices of the corpus, or per-document items in range
// key order. Otherwise, when a URI sits inside a pack and in another
// record, the rows are sorted stably.
func (d *keyDecoder) order() {
	rows, sc := d.l.rows, d.scratch
	if !d.descends {
		runs := sc.runs[:0]
		for i, start := range sc.starts {
			end := int32(len(rows))
			if i+1 < len(sc.starts) {
				end = sc.starts[i+1]
			}
			if end > start {
				runs = append(runs, rowRun{uri: rows[start].uri, start: start, end: end})
			}
		}
		sc.runs = runs
		sc.spare = sortRuns(runs, sc.spare)
		disjoint := true
		for i := 1; i < len(runs) && disjoint; i++ {
			// A URI that ends one record and starts the next keeps its rows
			// in record order only if the records came in that order.
			last, first := rows[runs[i-1].end-1].uri, runs[i].uri
			disjoint = last < first || last == first && runs[i-1].start < runs[i].start
		}
		if disjoint {
			for _, r := range runs {
				sc.rows = append(sc.rows, rows[r.start:r.end]...)
			}
			copy(rows, sc.rows)
			return
		}
	}
	slices.SortStableFunc(rows, func(a, b uriRow) int { return strings.Compare(a.uri, b.uri) })
}

// sortRuns sorts runs by first URI, ties by position, and returns spare
// grown to the runs' length for the next call. runs arrive by position.
// Each run gets the eight bytes of its URI that follow the prefix every
// run's URI shares, big-endian and zero-padded, so that unequal keys order
// as the URIs do: the URIs of one corpus share long prefixes
// ("xmark-000…"), which string comparisons would walk on every call. A
// stable radix sort on the key bytes that differ between runs (three for
// the gate corpus) keeps runs by position, and only runs whose keys tie
// compare their URIs.
func sortRuns(runs, spare []rowRun) []rowRun {
	if len(runs) < 2 {
		return spare
	}
	shared := runs[0].uri
	for _, r := range runs[1:] {
		for !strings.HasPrefix(r.uri, shared) {
			shared = shared[:len(shared)-1]
		}
	}
	all, some := ^uint64(0), uint64(0)
	for i := range runs {
		var b [8]byte
		copy(b[:], runs[i].uri[len(shared):])
		runs[i].key = binary.BigEndian.Uint64(b[:])
		all &= runs[i].key
		some |= runs[i].key
	}
	spare = slices.Grow(spare[:0], len(runs))[:len(runs)]
	src, dst := runs, spare
	for shift := 0; shift < 64; shift += 8 {
		if (all^some)>>shift&0xff == 0 {
			continue // every key has this byte
		}
		var at [256]int
		for _, r := range src {
			at[r.key>>shift&0xff]++
		}
		n := 0
		for b, c := range at {
			at[b], n = n, n+c
		}
		for _, r := range src {
			b := r.key >> shift & 0xff
			dst[at[b]] = r
			at[b]++
		}
		src, dst = dst, src
	}
	copy(runs, src)
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].key == runs[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortStableFunc(runs[i:j], func(a, b rowRun) int { return strings.Compare(a.uri, b.uri) })
		}
		i = j
	}
	return spare
}

// release hands the scratch back, holding nothing of the read.
func (d *keyDecoder) release() {
	if sc := d.scratch; sc != nil {
		clear(sc.rows) // the values are views of the store's memory
		clear(sc.runs)
		clear(sc.spare)
		sc.starts, sc.runs, sc.spare, sc.rows = sc.starts[:0], sc.runs[:0], sc.spare[:0], sc.rows[:0]
		orderScratches.Put(sc)
		d.scratch = nil
	}
}

// record decodes the current record of c, unless it is one that replaces
// supersedes.
func (d *keyDecoder) record(c *kv.Records, replaces map[string][]kv.Item) {
	if d.rec = len(d.l.rows); d.rec > 0 {
		if d.scratch == nil {
			d.scratch = orderScratches.Get().(*orderScratch)
			d.scratch.starts = append(d.scratch.starts, 0)
		}
		d.scratch.starts = append(d.scratch.starts, int32(d.rec))
	}
	if replaces != nil && c.AttrCount() == 1 {
		c.NextAttr()
		if _, replaced := replaces[c.Name()]; replaced {
			return
		}
		d.fed = true
		d.attr(c)
		return
	}
	d.fed = true
	for c.NextAttr() && d.err == nil {
		d.attr(c)
	}
}

// attr adds the current attribute of c to the rows. It is the one place
// stored values are validated and classified.
func (d *keyDecoder) attr(c *kv.Records) {
	name := c.Name()
	if d.l.kind == URIPosting {
		d.add(name, nil) // presence is all that matters
		return
	}
	n := 0
	for v, ok := c.NextValue(); ok; v, ok = c.NextValue() {
		if d.l.kind == PathPosting {
			// Validate now, retain raw: corrupt values fail here, and
			// matching later runs on the compressed form.
			if err := ValidatePathValue(v); err != nil {
				d.err = err
				return
			}
			d.l.charge += int64(len(v))
		} else {
			iv, err := classifyIDValue(v, d.l.binaryIDs, d.arena)
			if err != nil {
				d.err = err
				return
			}
			d.l.charge += iv.charge()
		}
		d.add(name, v)
		n++
	}
	if n == 0 {
		d.add(name, nil)
	}
}

// add appends one row, noting whether the rows are still in URI order — a
// pack's attributes are, and so is a key read as one pack — and counting
// the URIs while they are.
func (d *keyDecoder) add(uri string, v kv.Value) {
	rows := d.l.rows
	c := -1
	if n := len(rows); n > 0 {
		c = strings.Compare(rows[n-1].uri, uri)
	}
	switch {
	case c < 0:
		d.l.uris++
		d.uriCharge += uriCharge(uri)
	case c > 0:
		d.sorted = false
		d.descends = d.descends || len(rows) > d.rec
	}
	d.l.rows = append(rows, uriRow{uri: uri, v: v})
}

// buildPosting builds the posting of one URI from its rows, in sc (the heap
// when sc is nil).
func buildPosting(rows []uriRow, kind PostingKind, binaryIDs bool, sc *scratch) (*Posting, error) {
	p := sc.posting()
	p.URI = rows[0].uri
	switch kind {
	case PathPosting:
		n := 0
		for _, r := range rows {
			if len(r.v) > 0 {
				n++
			}
		}
		if n > 0 {
			p.PathVals = sc.valSlice(n)[:0]
			for _, r := range rows {
				if len(r.v) > 0 {
					p.PathVals = append(p.PathVals, r.v)
				}
			}
		}
	case IDPosting:
		if err := buildIDs(p, rows, binaryIDs, sc.arena()); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// buildIDs gives an identifier posting its shape from its values, parsing
// blocked values into a (the heap when a is nil). The one non-empty value
// that is a headerless stream stays raw; blocked segments are collected for
// finishIDPosting; anything else decodes eagerly, on the heap.
func buildIDs(p *Posting, rows []uriRow, binaryIDs bool, a *idblock.Arena) error {
	var (
		one     [1]*idblock.Set
		segs    = one[:0] // most postings hold one segment at most
		eager   []xmltree.NodeID
		several bool // more than one non-empty value
	)
	for _, r := range rows {
		iv, err := classifyIDValue(r.v, binaryIDs, a)
		if err != nil {
			return err
		}
		first := p.n == 0 && len(segs) == 0 && eager == nil
		switch {
		case iv.set == nil && iv.stream == nil && iv.ids == nil:
			continue // an empty value adds nothing
		case iv.stream != nil && first:
			p.raw, p.n = iv.stream, iv.n
			continue
		case !first:
			several = true
		}
		if p.raw != nil {
			// Any second value: the held stream joins the eager path,
			// whatever the order the records arrived in.
			eager = appendEager(eager, mustDecodeStream(p.raw, p.n, nil))
			p.raw, p.n = nil, 0
		}
		switch {
		case iv.set != nil:
			segs = append(segs, iv.set)
		case iv.stream != nil:
			eager = appendEager(eager, mustDecodeStream(iv.stream, iv.n, nil))
		default:
			eager = appendEager(eager, iv.ids)
		}
	}
	return finishIDPosting(p, segs, eager, several)
}

// appendEager adds decoded identifiers to an eager accumulator, adopting
// the first non-empty slice without a copy: the decode owns it.
func appendEager(eager, ids []xmltree.NodeID) []xmltree.NodeID {
	switch {
	case len(ids) == 0:
		return eager
	case eager == nil:
		return ids
	}
	return append(eager, ids...)
}

// finishIDPosting fixes a decoded identifier posting into its final shape.
// A raw posting is final already. All-blocked segments that tile the pre
// axis merge into one lazy Set — records arrive ordered by range key, not
// content, and Merge restores pre order from the headers alone. Anything
// else (text values, several streams, streams mixed with segments,
// overlapping segments) materializes: decode everything, restore pre order,
// drop identifiers repeated across values when there are several, and wrap
// the result as a single-block Set so the join kernels are format-blind.
// Repeats arise when a URI sits in two items under one key — a bulk
// commit's pack and a later per-document re-index of the same document
// (DESIGN §5e) — and the URI's identifiers must decode once. One value
// decodes as it is, as a raw stream does.
func finishIDPosting(p *Posting, segs []*idblock.Set, ids []xmltree.NodeID, several bool) error {
	if p.raw != nil {
		return nil
	}
	if ids == nil {
		if merged, ok := idblock.Merge(segs); ok {
			p.blocked = merged
			return nil
		}
	}
	for _, s := range segs {
		decoded, err := s.All()
		if err != nil {
			return err
		}
		ids = append(ids, decoded...)
	}
	if !idblock.IsSorted(ids) {
		sortIDs(ids)
	}
	if several {
		ids = slices.CompactFunc(ids, func(a, b xmltree.NodeID) bool { return a.Pre == b.Pre })
	}
	p.setIDs(ids)
	return nil
}

func sortIDs(ids []xmltree.NodeID) {
	// Items arrive ordered by range key, not by content; restore the pre
	// order the twig join requires.
	slices.SortFunc(ids, func(a, b xmltree.NodeID) int { return cmp.Compare(a.Pre, b.Pre) })
}
