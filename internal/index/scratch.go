package index

import (
	"sync"
	"unsafe"

	"repro/internal/idblock"
	"repro/internal/slab"
	"repro/internal/twigjoin"
)

// scratch is the memory of one look-up (DESIGN §5h, rule 4 of the look-up
// decode contract): the posting lists it decodes, the postings it builds
// from them with their path values and identifier sets, the intersections'
// outputs and the twig joins' state. Only the URI lists outlive a look-up,
// and they are made on the heap, so the look-up takes a pooled scratch and
// releases it when it returns. A list headed for the posting cache, and
// every posting built from a cached list, stays on the heap: the cache
// keeps them past the look-up.
//
// A look-up runs on its caller's goroutine, and so does everything that
// carves from its scratch; concurrent look-ups each take their own.
type scratch struct {
	rows     slab.Chunks[uriRow]
	lists    slab.Chunks[PostingList]
	listPtrs slab.Chunks[*PostingList]
	postings slab.Chunks[Posting]
	ptrs     slab.Chunks[*Posting]
	vals     slab.Chunks[[]byte]
	uris     slab.Chunks[string]
	ints     slab.Chunks[int32]
	ids      idblock.Arena

	join    twigjoin.Scratch
	sets    []*idblock.Set // a join's sets, by key
	streams twigjoin.IndexedStreams

	peak int64 // the high-water mark of the phases recycled so far
}

var scratches = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch {
	sc := &scratch{streams: make(twigjoin.IndexedStreams)}
	sc.join.Arena = &sc.ids
	return sc
}

// Slots are carved from chunks of at least chunkBytes, so that a scratch
// fresh from the pool allocates about what its look-up uses, and a
// released scratch keeps at most keepBytes of each kind's chunks: a scan
// look-up on the gate corpus carves at most 123 KB of one kind, and one
// odd query's memory should not ride along with every later look-up.
const (
	chunkBytes = 4 << 10
	keepBytes  = 256 << 10
)

func getScratch() *scratch { return scratches.Get().(*scratch) }

// bytes returns the scratch's high-water mark: the most that one phase of
// the look-up carved of it, with the largest twig join's state.
func (sc *scratch) bytes() int64 {
	n := sc.rows.Bytes() + sc.lists.Bytes() + sc.listPtrs.Bytes() + sc.postings.Bytes() +
		sc.ptrs.Bytes() + sc.vals.Bytes() + sc.uris.Bytes() + sc.ints.Bytes() +
		sc.ids.Bytes() + sc.join.Peak()
	return max(n, sc.peak)
}

// release resets sc and pools it again.
func (sc *scratch) release() {
	sc.reset()
	scratches.Put(sc)
}

// reset readies sc for another look-up.
func (sc *scratch) reset() {
	sc.recycle()
	sc.peak = 0
}

// recycle clears everything the look-up carved so far, for its next phase,
// and notes the high-water mark.
func (sc *scratch) recycle() {
	sc.peak = sc.bytes()
	keep(&sc.rows)
	keep(&sc.lists)
	keep(&sc.listPtrs)
	keep(&sc.postings)
	keep(&sc.ptrs)
	keep(&sc.vals)
	keep(&sc.uris)
	keep(&sc.ints)
	sc.ids.Reset()
	sc.join.Reset()
	clear(sc.sets)
	sc.sets = sc.sets[:0]
	clear(sc.streams)
}

// take carves n zeroed slots from c.
func take[T any](c *slab.Chunks[T], n int) []T {
	var zero T
	return c.Take(n, chunkBytes/int(unsafe.Sizeof(zero)))
}

// keep resets c, keeping keepBytes of its chunks.
func keep[T any](c *slab.Chunks[T]) {
	var zero T
	c.Reset(keepBytes / int(unsafe.Sizeof(zero)))
}

// The carving methods take a nil scratch for the heap.

func (sc *scratch) arena() *idblock.Arena {
	if sc == nil {
		return nil
	}
	return &sc.ids
}

func (sc *scratch) list() *PostingList {
	if sc == nil {
		return new(PostingList)
	}
	return &take(&sc.lists, 1)[0]
}

func (sc *scratch) posting() *Posting {
	if sc == nil {
		return new(Posting)
	}
	p := &take(&sc.postings, 1)[0]
	p.scoped = true
	return p
}

func (sc *scratch) rowSlice(n int) []uriRow {
	if sc == nil {
		return make([]uriRow, n)
	}
	return take(&sc.rows, n)
}

func (sc *scratch) listSlice(n int) []*PostingList {
	if sc == nil {
		return make([]*PostingList, n)
	}
	return take(&sc.listPtrs, n)
}

func (sc *scratch) valSlice(n int) [][]byte {
	if sc == nil {
		return make([][]byte, n)
	}
	return take(&sc.vals, n)
}
