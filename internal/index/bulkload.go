package index

import (
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/obs"
)

// This file implements the cross-document bulk loader. WriteExtraction
// flushes a batch per document and per table, so small documents ship
// mostly-empty batches — the "per-document round trips do not amortize"
// artifact Section 8.2 / Table 4 of the paper is about. The BulkLoader is a
// per-table group-commit buffer: items from many documents' extractions
// accumulate until a batch reaches the provider limit, so nearly every
// request carries a full batch and the billed request count drops to the
// floor of ceil(items/limit) per table.
//
// Items are built by the same tableItems helper as WriteExtraction, so the
// store contents are byte-identical to the per-document path; content-derived
// range keys (ItemRangeKey) keep coalesced retries idempotent exactly as
// they do per-document writes.

// ErrLoaderClosed is returned by Add after Close.
var ErrLoaderClosed = errors.New("index: bulk loader closed")

// BulkOptions tunes a BulkLoader.
type BulkOptions struct {
	// FlushItems is the per-table buffered-item count that triggers a
	// flush. Zero selects the store's Limits().BatchPutItems; values above
	// that limit are clamped to it (a single request cannot carry more).
	FlushItems int
	// Obs, when non-nil, receives the loader's flush metrics
	// (index.bulk.flushes / items / bytes counters and the index.bulk.flush
	// modeled-latency histogram). Nil disables them at zero cost.
	Obs *obs.Registry
}

// DocLoad is the completed outcome of one document's bulk load, released by
// Add, Flush or Close once every item of the document has been flushed.
type DocLoad struct {
	URI string
	// Upload is the document's pro-rata share of the modeled latency of
	// the batches its items rode in, apportioned by payload bytes. Shares
	// of one batch sum exactly to the batch's duration, so summing Upload
	// over documents reproduces the total modeled upload time.
	Upload time.Duration
	// Stats attributes load statistics to the document: Entries, Items and
	// Bytes are exact; each flushed batch's single Request is charged to
	// its first contributing document, so Requests also sums exactly to
	// the number of API calls issued.
	Stats LoadStats
}

// bulkDoc tracks one added extraction until all its items are flushed.
type bulkDoc struct {
	uri     string
	pending int  // items buffered but not yet flushed
	added   bool // Add finished appending the document's items
	upload  time.Duration
	stats   LoadStats
}

type pendingItem struct {
	item kv.Item
	size int64
	doc  *bulkDoc
}

// BulkLoader coalesces index items from many documents into full store
// batches. It is not safe for concurrent use; the indexing pipeline owns
// one loader per writer thread.
type BulkLoader struct {
	store      kv.Store
	caches     []*PostingCache
	flushItems int
	itemBudget int64

	buffers map[string][]pendingItem // per table, FIFO in Add order
	fifo    []*bulkDoc               // docs in Add order, not yet released
	total   LoadStats
	closed  bool

	// Flush instruments, resolved once at construction (nil-safe no-ops
	// when BulkOptions.Obs is nil).
	metFlushes *obs.Counter
	metItems   *obs.Counter
	metBytes   *obs.Counter
	metFlush   *obs.Histogram
}

// NewBulkLoader returns a loader writing to store. Caches fronting the
// store must be passed so flushed (and failed) batches invalidate them.
func NewBulkLoader(store kv.Store, opts BulkOptions, caches ...*PostingCache) *BulkLoader {
	lim := store.Limits()
	batchLimit := lim.BatchPutItems
	if batchLimit <= 0 {
		batchLimit = 1
	}
	flush := opts.FlushItems
	if flush <= 0 || flush > batchLimit {
		flush = batchLimit
	}
	live := caches[:0:0]
	for _, c := range caches {
		if c != nil {
			live = append(live, c)
		}
	}
	return &BulkLoader{
		store:      store,
		caches:     live,
		flushItems: flush,
		itemBudget: itemBudgetFor(lim),
		buffers:    make(map[string][]pendingItem),
		metFlushes: opts.Obs.Counter("index.bulk.flushes"),
		metItems:   opts.Obs.Counter("index.bulk.items"),
		metBytes:   opts.Obs.Counter("index.bulk.bytes"),
		metFlush:   opts.Obs.Histogram("index.bulk.flush"),
	}
}

// Add buffers the extraction's items and flushes any table whose buffer
// reached the flush threshold. It returns the documents completed by those
// flushes, in Add order. On error the failed batch's documents remain
// pending (their items may have partially landed; the idempotent range keys
// make a retry of the whole document converge).
func (b *BulkLoader) Add(ex *Extraction) ([]DocLoad, error) {
	if b.closed {
		return nil, ErrLoaderClosed
	}
	d := &bulkDoc{uri: ex.URI}
	b.fifo = append(b.fifo, d)
	for _, table := range sortedTables(ex) {
		entries := ex.Tables[table]
		d.stats.Entries += len(entries)
		b.total.Entries += len(entries)
		items := tableItems(ex.URI, table, entries, b.itemBudget)
		buf := slices.Grow(b.buffers[table], len(items))
		for _, item := range items {
			buf = append(buf, pendingItem{item: item, size: item.Size(), doc: d})
		}
		b.buffers[table] = buf
		d.pending += len(items)
		for len(b.buffers[table]) >= b.flushItems {
			if err := b.flushTable(table); err != nil {
				return b.release(), err
			}
		}
	}
	d.added = true
	return b.release(), nil
}

// Flush drains every partially-filled buffer (tables in sorted order) and
// returns the documents completed, in Add order.
func (b *BulkLoader) Flush() ([]DocLoad, error) {
	tables := make([]string, 0, len(b.buffers))
	for t := range b.buffers {
		if len(b.buffers[t]) > 0 {
			tables = append(tables, t)
		}
	}
	sort.Strings(tables)
	for _, t := range tables {
		for len(b.buffers[t]) > 0 {
			if err := b.flushTable(t); err != nil {
				return b.release(), err
			}
		}
	}
	return b.release(), nil
}

// Close flushes all buffers and marks the loader closed. Every added
// document is released by a successful Close.
func (b *BulkLoader) Close() ([]DocLoad, error) {
	done, err := b.Flush()
	if err == nil {
		b.closed = true
	}
	return done, err
}

// Total reports the aggregate statistics of everything flushed so far. It
// equals the sum of the released DocLoads' Stats once all documents are
// released.
func (b *BulkLoader) Total() LoadStats { return b.total }

// Pending reports how many added documents have not been fully flushed yet.
func (b *BulkLoader) Pending() int { return len(b.fifo) }

// flushTable ships one batch — the oldest buffered items of the table, up
// to the flush threshold — and attributes its cost to the contributing
// documents. The posting caches are invalidated for every item in the
// attempted batch even when the put fails: a partial batch may have landed,
// and a stale cached posting is the one failure mode invalidation exists to
// prevent.
func (b *BulkLoader) flushTable(table string) error {
	buf := b.buffers[table]
	n := b.flushItems
	if n > len(buf) {
		n = len(buf)
	}
	if n == 0 {
		return nil
	}
	batch := make([]kv.Item, n)
	var bytes int64
	for i := 0; i < n; i++ {
		batch[i] = buf[i].item
		bytes += buf[i].size
	}
	defer func() {
		for _, c := range b.caches {
			for i := 0; i < n; i++ {
				c.Invalidate(table, buf[i].item.HashKey)
			}
		}
	}()
	d, err := b.store.BatchPut(table, batch)
	if err != nil {
		return err
	}
	b.total.Requests++
	b.total.Items += n
	b.total.Bytes += bytes
	b.metFlushes.Inc()
	b.metItems.Add(int64(n))
	b.metBytes.Add(bytes)
	b.metFlush.ObserveModeled(d)
	// The batch's one API call is charged to the first contributor; its
	// duration is split pro-rata by payload bytes. The telescoping-sum form
	// (share_i = d·cum_i/bytes − d·cum_{i−1}/bytes) makes integer-duration
	// shares sum exactly to d, so per-document upload times add up to the
	// total without rounding drift.
	buf[0].doc.stats.Requests++
	var cum int64
	var prev time.Duration
	for i := 0; i < n; i++ {
		it := buf[i]
		cum += it.size
		share := time.Duration(int64(d) * cum / bytes)
		it.doc.upload += share - prev
		prev = share
		it.doc.stats.Items++
		it.doc.stats.Bytes += it.size
		it.doc.pending--
	}
	b.buffers[table] = buf[n:]
	return nil
}

// release pops fully-flushed documents off the head of the FIFO, stopping
// at the first incomplete one. Releasing head-first (rather than any
// complete document) pins the release order to the Add order, which is what
// lets the indexing pipeline match DocLoads to its own in-flight queue
// positionally; a later document whose tables happen to have flushed simply
// waits for the head's partial batch, which Close always drains.
func (b *BulkLoader) release() []DocLoad {
	var done []DocLoad
	for len(b.fifo) > 0 {
		d := b.fifo[0]
		if !d.added || d.pending > 0 {
			break
		}
		done = append(done, DocLoad{URI: d.uri, Upload: d.upload, Stats: d.stats})
		b.fifo = b.fifo[1:]
	}
	return done
}
