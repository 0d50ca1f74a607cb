package index

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/cloud/kv"
	"repro/internal/obs"
)

// This file implements the cross-document bulk loader, a commit-time
// packer (DESIGN §7.5). WriteExtraction writes one item per (key, document);
// Section 6's mapping names an item's attributes by URI, so one item can
// carry many documents' postings. The BulkLoader holds every (table, key)'s
// contributions — one document's values under one key — until Close, then
// writes one item per key, packed greedily in URI order under the item
// budget: billed rows drop from one per (key, document) to about one per
// key, and requests to ceil(packs/BatchPutItems) puts plus
// ceil(keys/BatchGetKeys) reads per table.
//
// A pack of one is WriteExtraction's item byte for byte; a pack of two or
// more is keyed by its first member at packOrdinal. Close first reads the
// commit's keys and drops every contribution whose URI the key already
// names, so a redelivered or re-run commit converges without duplicating a
// posting.

// ErrLoaderClosed is returned by Add after Close.
var ErrLoaderClosed = errors.New("index: bulk loader closed")

// BulkOptions tunes a BulkLoader.
type BulkOptions struct {
	// Obs, when non-nil, receives the loader's put metrics
	// (index.bulk.flushes / items / bytes counters and the index.bulk.flush
	// modeled-latency histogram). Nil disables them at zero cost.
	Obs *obs.Registry
	// Concurrent commits the tables on goroutines of their own. The store
	// contents, modeled times and bill are the same either way; a store
	// whose faults are drawn from one seeded sequence needs the requests
	// in a fixed order, and so a sequential commit.
	Concurrent bool
	// Memory, when non-nil, is where the loader takes the chunks it carves
	// from and gives back what it wrote: a build whose loaders share one
	// allocates its copy once. A nil Memory starts the loader from none.
	Memory *BulkMemory
}

// DocLoad is the completed outcome of one document's bulk load, released by
// a successful Close.
type DocLoad struct {
	URI string
	// Upload is the document's pro-rata share, by contributed bytes, of the
	// modeled latency of the commit's reads and puts. Shares sum exactly to
	// the commit's duration.
	Upload time.Duration
	// Stats attributes load statistics to the document. Entries are the
	// extraction's. A pack's row and its key bytes are its first member's,
	// each member's attribute bytes its own, so Items and Bytes sum to the
	// rows and bytes written. Each read and put request is charged to the
	// document owning the first contribution it carries, so Requests sums
	// to the store calls issued.
	Stats LoadStats
}

// bulkDoc is one added extraction until the commit.
type bulkDoc struct {
	uri    string
	upload time.Duration
	stats  LoadStats
}

// Contribution states.
const (
	contribLive      uint32 = iota
	contribDropped          // already under its key, or a repeat within the commit
	contribOversized        // larger than the item budget: per-document chunk items
)

// A contribution is one document's values under one key. It lives in a
// slab: a header of headerLen bytes — the key's next contribution (slab and
// offset; slab −1 ends the chain), the value bytes with the state in the
// top two bits, the value count — and then each value behind its length as
// a uvarint. A contrib is its place.
type contrib struct{ slab, off int32 }

const headerLen = 16

// endOfChain is the next of a key's last contribution.
var endOfChain = contrib{-1, 0}

// slabsPerDoc is how many slabs of about equal size a document's
// contributions to a table are cut into, laid out in chain order. The
// commit writes the chains in order and drops each slab once its last chain
// is written, so the loader's copy shrinks as the store's grows: a commit
// holds at most a slab a document, an eighth of the copy, more than the
// store will hold when it is done, however many documents it packs.
const slabsPerDoc = 8

// A chunk is what a table's slabs and keys are carved from. Cut k of every
// document carves from its own open chunk, so a chunk's slabs end near the
// same chain and the commit is done with the chunk about when it is with
// each of them. A written chunk is kept for the next commit's Add, so that
// a build committing slice after slice allocates its copy once.
type chunk [chunkSize]byte

const (
	chunkSize = 64 << 10
	// maxFree bounds the chunks a commit keeps and gives back: 2 MB a
	// table.
	maxFree = 2 << 20 / chunkSize
	// keyCut is the cut ordinal keys carve from.
	keyCut = slabsPerDoc
)

// BulkMemory holds the chunks that committed loaders gave back, at most
// maxFree a table, until a loader claims them. Its owner passes it in
// BulkOptions and keeps it as long as it builds. The zero value is ready for
// use; it is safe for concurrent use.
type BulkMemory struct {
	mu   sync.Mutex
	free []*chunk
}

// claim moves the chunks m holds to spare: from then to the commit's end
// the loader holds them.
func (m *BulkMemory) claim(spare []*chunk) []*chunk {
	m.mu.Lock()
	defer m.mu.Unlock()
	spare = append(spare, m.free...)
	clear(m.free)
	m.free = m.free[:0]
	return spare
}

// slabInfo is a slab's document; end, how many chains the commit has
// written once the slab is no longer read: its last contribution's chain,
// plus one; and the chunk it was carved from, −1 for a slab larger than a
// chunk, which has memory of its own.
type slabInfo struct{ doc, end, chunk int32 }

// carved is a chunk a commit carves from, nil once given back: how much of
// it is carved, and how many of its slabs are not dropped yet.
type carved struct {
	mem        *chunk
	used, live int32
}

// keyChain is one key's contributions, linked through their headers: in
// Add order until the commit sorts them by URI.
type keyChain struct {
	key         string
	first, last contrib
}

// packTable is what one table's commit holds: its keys and the slabs their
// contributions live in, and while it commits, its scratch and what it
// charges each document.
type packTable struct {
	index  map[string]int32 // key → chains
	chains []keyChain
	slabs  [][]byte
	slabAt []slabInfo // by slab
	order  []uint64   // Add's and put's sort scratch

	// chunks are the chunks the commit carves from, and open the one each
	// cut ordinal carves from, plus one (0 for none yet).
	chunks []carved
	open   [keyCut + 1]int32
	// written holds the chunks whose slabs are all dropped until the batch
	// holding their last views has shipped, and shipped up to maxFree of
	// those chunks from then to the commit's end.
	written []int32
	shipped []*chunk

	stats   []LoadStats // by document
	members []contrib
	pack    []contrib
	batch   []kv.Item
	attrs   []kv.Attr
	vals    []kv.Value
	keys    []string
}

// packTables keeps a table's commit state from one commit to the next,
// without its slabs: the key index and the chains of a commit of forty
// documents are thousands of keys deep.
var packTables = sync.Pool{New: func() any { return &packTable{index: make(map[string]int32)} }}

// recycle clears what pt references of the commit — keys, slabs, scratch —
// and returns it to the pool. A failed commit's error may hold items built
// in its attribute and value scratch, so after one that scratch is dropped.
func (pt *packTable) recycle(committed bool) {
	if !committed {
		pt.attrs, pt.vals = nil, nil
	}
	clear(pt.index)
	clear(pt.chains)
	clear(pt.slabs)
	clear(pt.chunks)
	clear(pt.shipped)
	clear(pt.batch[:cap(pt.batch)]) // shipped batches leave views behind len
	clear(pt.attrs[:cap(pt.attrs)])
	clear(pt.vals[:cap(pt.vals)])
	clear(pt.keys[:cap(pt.keys)])
	pt.open = [keyCut + 1]int32{}
	pt.chains, pt.slabs, pt.slabAt, pt.order, pt.stats = pt.chains[:0], pt.slabs[:0], pt.slabAt[:0], pt.order[:0], nil
	pt.chunks, pt.written, pt.shipped = pt.chunks[:0], pt.written[:0], pt.shipped[:0]
	pt.members, pt.pack, pt.batch, pt.attrs, pt.vals, pt.keys = pt.members[:0], pt.pack[:0], pt.batch[:0], pt.attrs[:0], pt.vals[:0], pt.keys[:0]
	packTables.Put(pt)
}

// carve returns size bytes of the open chunk of cut, as an empty slice of
// that capacity, and the chunk. A new open chunk is the last of spare, if
// any. A chunk is never written again where it was carved, so what is
// appended to the slice stays until the commit's end. More than a chunk
// gets memory of its own, and chunk −1.
func (pt *packTable) carve(cut, size int, spare *[]*chunk) ([]byte, int32) {
	if size > chunkSize {
		return make([]byte, 0, size), -1
	}
	c := pt.open[cut] - 1
	if c < 0 || chunkSize-int(pt.chunks[c].used) < size {
		var ch *chunk
		if n := len(*spare); n > 0 {
			ch, (*spare)[n-1], *spare = (*spare)[n-1], nil, (*spare)[:n-1]
		} else {
			ch = new(chunk)
		}
		c = int32(len(pt.chunks))
		pt.chunks = append(pt.chunks, carved{mem: ch})
		pt.open[cut] = c + 1
	}
	ch := &pt.chunks[c]
	off := int(ch.used)
	ch.used += int32(size)
	return ch.mem[off : off : off+size], c
}

// drop lets a slab go once its last chain is written. Its chunk is written
// with its last slab, and given back once the batch in hand has shipped.
func (pt *packTable) drop(slab int) {
	pt.slabs[slab] = nil
	if c := pt.slabAt[slab].chunk; c >= 0 {
		if pt.chunks[c].live--; pt.chunks[c].live == 0 {
			pt.written = append(pt.written, c)
		}
	}
}

// own returns a copy of key in pt's memory: chains and index keep the copy,
// not the string of the extraction that brought the key, which its owner
// may recycle once Add returns.
func (pt *packTable) own(key string, spare *[]*chunk) string {
	mem, _ := pt.carve(keyCut, len(key), spare)
	mem = append(mem, key...)
	return unsafe.String(unsafe.SliceData(mem), len(key))
}

// header returns c's header.
func (pt *packTable) header(c contrib) []byte {
	return pt.slabs[c.slab][c.off : c.off+headerLen : c.off+headerLen]
}

// doc returns the document c belongs to.
func (pt *packTable) doc(c contrib) int32 { return pt.slabAt[c.slab].doc }

// next returns the contribution after c in its key's chain.
func (pt *packTable) next(c contrib) contrib {
	h := pt.header(c)
	return contrib{int32(binary.LittleEndian.Uint32(h)), int32(binary.LittleEndian.Uint32(h[4:]))}
}

func (pt *packTable) setNext(c, next contrib) {
	h := pt.header(c)
	binary.LittleEndian.PutUint32(h, uint32(next.slab))
	binary.LittleEndian.PutUint32(h[4:], uint32(next.off))
}

// size returns c's value bytes, and state its state.
func (pt *packTable) size(c contrib) int64 {
	return int64(binary.LittleEndian.Uint32(pt.header(c)[8:]) & (1<<30 - 1))
}

func (pt *packTable) state(c contrib) uint32 {
	return binary.LittleEndian.Uint32(pt.header(c)[8:]) >> 30
}

func (pt *packTable) setState(c contrib, state uint32) {
	h := pt.header(c)[8:]
	binary.LittleEndian.PutUint32(h, binary.LittleEndian.Uint32(h)&(1<<30-1)|state<<30)
}

// values appends c's values, views of the slab, to dst.
func (pt *packTable) values(dst []kv.Value, c contrib) []kv.Value {
	h := pt.header(c)
	buf := pt.slabs[c.slab][c.off+headerLen:]
	for range binary.LittleEndian.Uint32(h[12:]) {
		n, w := binary.Uvarint(buf)
		end := w + int(n)
		dst = append(dst, kv.Value(buf[w:end:end]))
		buf = buf[end:]
	}
	return dst
}

// BulkLoader packs index postings from many documents into one item per
// key at commit time. It is not safe for concurrent use; the indexing
// pipeline owns one loader per run.
type BulkLoader struct {
	store      kv.Store
	caches     []*PostingCache
	putItems   int // the store's batch limits
	getKeys    int
	itemBudget int64

	concurrent bool

	tables map[string]*packTable
	docs   []bulkDoc
	closed bool
	// mem is where the loader claims chunks and gives them back, and spare
	// holds the claimed chunks, which the tables carve from first.
	mem   *BulkMemory
	spare []*chunk

	// Put instruments, resolved once at construction (nil-safe no-ops when
	// BulkOptions.Obs is nil).
	metFlushes *obs.Counter
	metItems   *obs.Counter
	metBytes   *obs.Counter
	metFlush   *obs.Histogram
}

// NewBulkLoader returns a loader writing to store. Caches fronting the
// store must be passed so the commit's keys are invalidated in them.
func NewBulkLoader(store kv.Store, opts BulkOptions, caches ...*PostingCache) *BulkLoader {
	lim := store.Limits()
	live := caches[:0:0]
	for _, c := range caches {
		if c != nil {
			live = append(live, c)
		}
	}
	mem := opts.Memory
	if mem == nil {
		mem = new(BulkMemory)
	}
	return &BulkLoader{
		mem:        mem,
		store:      store,
		caches:     live,
		putItems:   max(lim.BatchPutItems, 1),
		getKeys:    max(lim.BatchGetKeys, 1),
		itemBudget: itemBudgetFor(lim),
		concurrent: opts.Concurrent,
		tables:     make(map[string]*packTable),
		metFlushes: opts.Obs.Counter("index.bulk.flushes"),
		metItems:   opts.Obs.Counter("index.bulk.items"),
		metBytes:   opts.Obs.Counter("index.bulk.bytes"),
		metFlush:   opts.Obs.Histogram("index.bulk.flush"),
	}
}

// Add copies the extraction's values and new keys into the loader and
// records its contributions. It issues no request and keeps nothing of ex,
// so the caller may Release ex once Add returns. It releases no document
// either — only Close does — so its loads are always nil; they are returned
// so that a caller can gather loads from Add and Close alike.
func (b *BulkLoader) Add(ex *Extraction) ([]DocLoad, error) {
	if b.closed {
		return nil, ErrLoaderClosed
	}
	doc := int32(len(b.docs))
	b.docs = append(b.docs, bulkDoc{uri: ex.URI, stats: LoadStats{Entries: ex.Entries}})
	for table, entries := range ex.Tables {
		pt := b.tables[table]
		if pt == nil {
			pt = packTables.Get().(*packTable)
			b.spare = b.mem.claim(b.spare)
			b.tables[table] = pt
		}
		// The entries in chain order: a key the commit has not met yet
		// starts a chain.
		order := pt.order[:0]
		for i, e := range entries {
			k, ok := pt.index[e.Key]
			if !ok {
				k = int32(len(pt.chains))
				key := pt.own(e.Key, &b.spare)
				pt.index[key] = k
				pt.chains = append(pt.chains, keyChain{key: key, first: endOfChain, last: endOfChain})
			}
			order = append(order, uint64(k)<<32|uint64(i))
		}
		slices.Sort(order)
		pt.order = order
		total := 0
		for _, e := range entries {
			total += contribLen(e)
		}
		for cut, done := 1, 0; len(order) > 0; cut++ {
			n, size := 0, 0
			for ; n < len(order) && (n == 0 || done+size < total*cut/slabsPerDoc); n++ {
				size += contribLen(entries[uint32(order[n])])
			}
			done += size
			slab := int32(len(pt.slabs))
			mem, c := pt.carve(cut-1, size, &b.spare)
			if c >= 0 {
				pt.chunks[c].live++
			}
			pt.slabs = append(pt.slabs, mem)
			pt.slabAt = append(pt.slabAt, slabInfo{doc: doc, end: int32(order[n-1]>>32) + 1, chunk: c})
			for _, o := range order[:n] {
				pt.add(slab, &pt.chains[o>>32], ex.URI, entries[uint32(o)], b.itemBudget)
			}
			order = order[n:]
		}
	}
	return nil, nil
}

// contribLen is the slab bytes of e's contribution.
func contribLen(e Entry) int {
	size := headerLen
	for _, v := range e.Values {
		size += len(v) + uvarintLen(len(v))
	}
	return size
}

// add appends one entry's contribution to the slab and to the key's chain.
func (pt *packTable) add(slab int32, ch *keyChain, uri string, e Entry, itemBudget int64) {
	size := 0
	for _, v := range e.Values {
		size += len(v)
	}
	state := contribLive
	if groupLen(e.Values, max(itemBudget-int64(len(e.Key)+len(uri)), 1)) < len(e.Values) {
		state = contribOversized
	}
	buf := pt.slabs[slab]
	c := contrib{slab, int32(len(buf))}
	buf = binary.LittleEndian.AppendUint32(buf, ^uint32(0))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size)|state<<30)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Values)))
	for _, v := range e.Values {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	pt.slabs[slab] = buf
	if ch.first.slab < 0 {
		ch.first = c
	} else {
		pt.setNext(ch.last, c)
	}
	ch.last = c
}

// uvarintLen is the length of n as a uvarint.
func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// Close commits everything added and returns every added document, in Add
// order. On error nothing is released: some items may have landed, and a
// redelivery of the same documents converges. The loader is spent either
// way, and the posting caches are invalidated for every key of the commit.
func (b *BulkLoader) Close() ([]DocLoad, error) {
	if b.closed {
		return nil, nil
	}
	b.closed = true
	names := make([]string, 0, len(b.tables))
	for name := range b.tables {
		names = append(names, name)
	}
	slices.Sort(names)
	// A failed commit's error may hold items keyed and valued in the
	// commit's chunks, so only a successful one gives them back.
	committed := false
	defer func() {
		if committed {
			b.giveBack()
		}
		for _, name := range names {
			pt := b.tables[name]
			for _, c := range b.caches {
				for _, ch := range pt.chains {
					c.Invalidate(name, ch.key)
				}
			}
			pt.recycle(committed)
		}
		b.tables, b.docs, b.spare = nil, nil, nil
	}()
	ds, errs := make([]time.Duration, len(names)), make([]error, len(names))
	commit := func(i int) { ds[i], errs[i] = b.commit(names[i], b.tables[names[i]]) }
	if b.concurrent && len(names) > 1 {
		var wg sync.WaitGroup
		for i := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				commit(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range names {
			if commit(i); errs[i] != nil {
				break
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	committed = true
	var total time.Duration
	for i, name := range names {
		total += ds[i]
		for j, st := range b.tables[name].stats {
			doc := &b.docs[j].stats
			doc.Items += st.Items
			doc.Requests += st.Requests
			doc.Bytes += st.Bytes
		}
	}
	return b.release(total), nil
}

// giveBack puts what a successful commit carved, kept or claimed in the
// loader's memory, up to maxFree a table.
func (b *BulkLoader) giveBack() {
	m := b.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	limit := maxFree * len(b.tables)
	keep := func(ch *chunk) {
		if len(m.free) < limit {
			m.free = append(m.free, ch)
		}
	}
	for _, pt := range b.tables {
		for _, ch := range pt.chunks {
			if ch.mem != nil {
				keep(ch.mem)
			}
		}
		for _, ch := range pt.shipped {
			keep(ch)
		}
	}
	for _, ch := range b.spare {
		keep(ch)
	}
}

// release apportions the commit's modeled duration over the documents by
// contributed bytes and returns their loads. The telescoping-sum form
// (share_i = d·cum_i/bytes − d·cum_{i−1}/bytes) makes integer-duration
// shares sum exactly to d.
func (b *BulkLoader) release(d time.Duration) []DocLoad {
	if len(b.docs) == 0 {
		return nil
	}
	var bytes int64
	for i := range b.docs {
		bytes += b.docs[i].stats.Bytes
	}
	if bytes == 0 {
		b.docs[0].upload = d // every contribution was already stored
	} else {
		var cum int64
		var prev time.Duration
		for i := range b.docs {
			cum += b.docs[i].stats.Bytes
			share := time.Duration(int64(d) * cum / bytes)
			b.docs[i].upload = share - prev
			prev = share
		}
	}
	out := make([]DocLoad, len(b.docs))
	for i, doc := range b.docs {
		out[i] = DocLoad{URI: doc.uri, Upload: doc.upload, Stats: doc.stats}
	}
	return out
}

// commit writes one table's contributions: keys in the order the commit
// met them, each key's contributions in URI order, repeats and stored URIs
// dropped, then packed and shipped. A pack depends only on its key's
// contributions, so the order moves how items share requests, never an
// item. It reads the loader's documents and writes only pt.
func (b *BulkLoader) commit(table string, pt *packTable) (time.Duration, error) {
	pt.stats = make([]LoadStats, len(b.docs))
	for i := range pt.chains {
		b.sortChain(pt, &pt.chains[i])
	}
	var total time.Duration
	for rest := pt.chains; len(rest) > 0; {
		n := min(b.getKeys, len(rest))
		d, err := b.dropStored(table, pt, rest[:n])
		total += d
		if err != nil {
			return total, err
		}
		rest = rest[n:]
	}
	d, err := b.put(table, pt)
	return total + d, err
}

// sortChain relinks a key's contributions in URI order, Add order among
// equal URIs, and drops every repeat of a URI.
func (b *BulkLoader) sortChain(pt *packTable, ch *keyChain) {
	uri := func(c contrib) string { return b.docs[pt.doc(c)].uri }
	sorted := true // documents mostly arrive in URI order
	m := pt.members[:0]
	for c := ch.first; c.slab >= 0; c = pt.next(c) {
		if len(m) > 0 && sorted {
			sorted = uri(m[len(m)-1]) < uri(c)
		}
		m = append(m, c)
	}
	pt.members = m
	if sorted {
		return
	}
	slices.SortFunc(m, func(x, y contrib) int {
		if c := strings.Compare(uri(x), uri(y)); c != 0 {
			return c
		}
		return int(pt.doc(x) - pt.doc(y))
	})
	for i, c := range m {
		next := endOfChain
		if i+1 < len(m) {
			next = m[i+1]
		}
		pt.setNext(c, next)
		if i > 0 && uri(c) == uri(m[i-1]) {
			pt.setState(c, contribDropped)
		}
	}
	ch.first, ch.last = m[0], m[len(m)-1]
}

// dropStored reads one batch of the commit's keys and drops each
// contribution whose URI already names an attribute under its key. Chunk
// items of an oversized contribution are rewritten in place instead: their
// keys are the content-derived per-document ones. The read is charged to
// the document owning the batch's first contribution.
func (b *BulkLoader) dropStored(table string, pt *packTable, chains []keyChain) (time.Duration, error) {
	pt.keys = pt.keys[:0]
	for _, ch := range chains {
		pt.keys = append(pt.keys, ch.key)
	}
	uriOf := func(c contrib) string { return b.docs[pt.doc(c)].uri }
	// Writes are not cancelled half-way.
	next := 0 // a read visits keys in request order; retries may not
	d, err := b.store.Read(context.Background(), table, pt.keys, func(key string, recs *kv.Records) {
		i := next
		if i >= len(chains) || chains[i].key != key {
			i = slices.IndexFunc(chains, func(ch keyChain) bool { return ch.key == key })
		}
		next = i + 1
		if i < 0 || recs.Tally().Items == 0 {
			return
		}
		// A record's attributes are in URI order, and so are the chain's
		// contributions: a record outside the chain's range holds none of
		// them, which its first and last names tell.
		lo, hi := uriOf(chains[i].first), uriOf(chains[i].last)
		var m []contrib // the live contributions, once a record may hold one
		gathered := false
		for recs.Next() {
			if recs.AttrCount() == 0 || recs.LastName() < lo {
				continue
			}
			if !gathered {
				gathered, m = true, pt.members[:0]
				for c := chains[i].first; c.slab >= 0; c = pt.next(c) {
					if pt.state(c) == contribLive {
						m = append(m, c)
					}
				}
				pt.members = m
			}
			if len(m) == 0 {
				return
			}
			for recs.NextAttr() {
				name := recs.Name()
				if name < lo {
					continue
				}
				if name > hi {
					break
				}
				if j, found := slices.BinarySearchFunc(m, name, func(c contrib, uri string) int {
					return strings.Compare(uriOf(c), uri)
				}); found {
					pt.setState(m[j], contribDropped)
				}
			}
		}
	})
	if err != nil {
		return d, err
	}
	pt.stats[pt.doc(chains[0].first)].Requests++
	return d, nil
}

// put builds the table's items, key by key, and ships them
// BatchPutItems at a time. Item, attribute and value headers are built into
// scratch reused from batch to batch; range keys are hashed once per
// (first member, pack shape).
func (b *BulkLoader) put(table string, pt *packTable) (time.Duration, error) {
	var (
		total  time.Duration
		owner  int32 // the document the current batch's request is charged to
		single = make([]string, len(b.docs))
		multi  = make([]string, len(b.docs))
	)
	ship := func() error {
		if len(pt.batch) == 0 {
			return nil
		}
		d, err := b.store.BatchPut(table, pt.batch)
		total += d
		if err != nil {
			return err
		}
		var bytes int64
		for _, it := range pt.batch {
			bytes += it.Size()
		}
		b.metFlushes.Inc()
		b.metItems.Add(int64(len(pt.batch)))
		b.metBytes.Add(bytes)
		b.metFlush.ObserveModeled(d)
		pt.stats[owner].Requests++
		// The store has copied the batch. Left behind len, its value views
		// would keep each slab they point into until the commit's end; and
		// the chunks no later batch reads are given back.
		clear(pt.vals)
		pt.batch, pt.attrs, pt.vals = pt.batch[:0], pt.attrs[:0], pt.vals[:0]
		for _, c := range pt.written {
			if len(pt.shipped) < maxFree {
				pt.shipped = append(pt.shipped, pt.chunks[c].mem)
			}
			pt.chunks[c].mem = nil
		}
		pt.written = pt.written[:0]
		return nil
	}
	emit := func(it kv.Item, doc int32) error {
		if len(pt.batch) == 0 {
			owner = doc
		}
		pt.batch = append(pt.batch, it)
		if len(pt.batch) < b.putItems {
			return nil
		}
		return ship()
	}
	// flush writes the pack gathered in pt.pack under key.
	flush := func(key string) error {
		if len(pt.pack) == 0 {
			return nil
		}
		first := pt.doc(pt.pack[0])
		keys := single
		if len(pt.pack) > 1 {
			keys = multi
		}
		if keys[first] == "" {
			keys[first] = packRangeKey(b.docs[first].uri, table, len(pt.pack))
		}
		a0 := len(pt.attrs)
		for _, c := range pt.pack {
			v0 := len(pt.vals)
			pt.vals = pt.values(pt.vals, c)
			doc := pt.doc(c)
			name := b.docs[doc].uri
			pt.attrs = append(pt.attrs, kv.Attr{Name: name, Values: pt.vals[v0:len(pt.vals):len(pt.vals)]})
			pt.stats[doc].Bytes += int64(len(name)) + pt.size(c)
		}
		pt.stats[first].Items++
		pt.stats[first].Bytes += int64(len(key) + len(keys[first]))
		pt.pack = pt.pack[:0]
		return emit(kv.Item{HashKey: key, RangeKey: keys[first], Attrs: pt.attrs[a0:len(pt.attrs):len(pt.attrs)]}, first)
	}
	// Slabs are dropped once their last chains are written, and chunks let
	// go of once their batches have shipped (but for the maxFree kept for
	// the next commit), so that the loader's copy shrinks while the store's
	// grows.
	drops := pt.order[:0]
	for slab, at := range pt.slabAt {
		drops = append(drops, uint64(at.end)<<32|uint64(slab))
	}
	slices.Sort(drops)
	pt.order = drops
	for i, ch := range pt.chains {
		for ; len(drops) > 0 && int(drops[0]>>32) <= i; drops = drops[1:] {
			pt.drop(int(uint32(drops[0])))
		}
		var size int64
		for c := ch.first; c.slab >= 0; c = pt.next(c) {
			switch pt.state(c) {
			case contribDropped:
				continue
			case contribOversized:
				if err := b.emitChunks(table, ch.key, pt, c, emit); err != nil {
					return total, err
				}
				continue
			}
			member := int64(len(b.docs[pt.doc(c)].uri)) + pt.size(c)
			if len(pt.pack) > 0 && size+member > b.itemBudget {
				if err := flush(ch.key); err != nil {
					return total, err
				}
			}
			if len(pt.pack) == 0 {
				size = int64(len(ch.key))
			}
			pt.pack = append(pt.pack, c)
			size += member
		}
		if err := flush(ch.key); err != nil {
			return total, err
		}
	}
	return total, ship()
}

// emitChunks emits an oversized contribution as WriteExtraction's chunk
// items, ItemRangeKey(uri, table, ordinal), split as appendDocItems splits.
func (b *BulkLoader) emitChunks(table, key string, pt *packTable, c contrib, emit func(kv.Item, int32) error) error {
	doc := pt.doc(c)
	uri := b.docs[doc].uri
	avail := max(b.itemBudget-int64(len(key)+len(uri)), 1)
	rest := pt.values(nil, c)
	for ordinal := 0; len(rest) > 0; ordinal++ {
		n := groupLen(rest, avail)
		pt.attrs = append(pt.attrs, kv.Attr{Name: uri, Values: rest[:n:n]})
		rest = rest[n:]
		it := kv.Item{HashKey: key, RangeKey: ItemRangeKey(uri, table, ordinal), Attrs: pt.attrs[len(pt.attrs)-1 : len(pt.attrs) : len(pt.attrs)]}
		pt.stats[doc].Items++
		pt.stats[doc].Bytes += it.Size()
		if err := emit(it, doc); err != nil {
			return err
		}
	}
	return nil
}
