package xmltree

import (
	"slices"
	"sync"
)

// arena is the memory a Document's nodes, text and indexes live in: the
// chunks of the node slab, of the Children slab and of the text slab, the
// one allocation behind Nodes and NodesByLabel, the per-label lists and the
// label map. A parse takes a pooled arena and fills it; Release clears it
// and pools it again, so that the next parse reuses its chunks instead of
// allocating.
type arena struct {
	nodes   chunks[Node]
	kids    chunks[*Node]
	text    chunks[byte]
	index   []*Node
	byLabel [][]*Node
	labels  map[string]int32
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// A pooled arena keeps at most maxPooledChunks chunks of each slab and at
// most maxPooledSlots slots of the node and Children slabs and
// maxPooledTextBytes of the text slab in all, the largest chunks first. So
// one large document does not make every later parse carry its chunks, and
// the chunks a parse had to make because no free one had room do not pile
// up.
const (
	maxPooledChunks    = 8
	maxPooledTextBytes = 256 << 10
)

// chunks is the chunk list of one slab: list[:used] are the chunks the
// document at hand took, in order, each as long as what it holds; the rest
// are free and empty.
type chunks[T any] struct {
	list [][]T
	used int
}

// take returns the largest free chunk with room for need slots, or a new one
// of want slots when none has room, and counts it as used.
func (c *chunks[T]) take(need, want int) []T {
	best := -1
	for i := c.used; i < len(c.list); i++ {
		if n := cap(c.list[i]); n >= need && (best < 0 || n > cap(c.list[best])) {
			best = i
		}
	}
	if best < 0 {
		c.list = append(c.list, make([]T, 0, want))
		best = len(c.list) - 1
	}
	c.list[c.used], c.list[best] = c.list[best], c.list[c.used]
	c.used++
	return c.list[c.used-1]
}

// settle records cur, the chunk last taken, as far as it is filled.
func (c *chunks[T]) settle(cur []T) {
	if c.used > 0 {
		c.list[c.used-1] = cur
	}
}

// reset empties the used chunks, clearing them if wipe is set, and keeps,
// of all, the largest that fit maxPooledChunks and bound slots. Only chunks
// that hold pointers need wiping, so that the pool pins nothing.
func (c *chunks[T]) reset(bound int, wipe bool) {
	for i, ch := range c.list[:c.used] {
		if wipe {
			clear(ch)
		}
		c.list[i] = ch[:0]
	}
	c.used = 0
	slices.SortFunc(c.list, func(a, b []T) int { return cap(b) - cap(a) })
	kept, slots := 0, 0
	for _, ch := range c.list {
		if kept < maxPooledChunks && slots+cap(ch) <= bound {
			c.list[kept] = ch
			kept++
			slots += cap(ch)
		}
	}
	clear(c.list[kept:])
	c.list = c.list[:kept]
}

// release clears a, so that it points at nothing a document held, and
// returns it to the pool.
func (a *arena) release() {
	a.nodes.reset(maxPooledSlots, true)
	a.kids.reset(maxPooledSlots, true)
	a.text.reset(maxPooledTextBytes, false)
	clear(a.index)
	clear(a.byLabel)
	a.index, a.byLabel = a.index[:0], a.byLabel[:0]
	if cap(a.index) > 2*maxPooledSlots {
		a.index = nil
	}
	if cap(a.byLabel) > maxPooledSymbols || len(a.labels) > maxPooledSymbols {
		a.byLabel, a.labels = nil, nil
	}
	clear(a.labels)
	arenaPool.Put(a)
}

// Release hands the memory of d's nodes, text and indexes to later parses:
// the node slab, the Children slices, the text slab and the Nodes and
// NodesByLabel indexes, cleared. Afterwards d reads as empty (no Root, no
// nodes, NodesScanned 0; URI and SourceBytes stay), and a second call does
// nothing.
//
// Only the document's owner may call it, once nothing reads the document
// any more: nothing it handed out may be read after Release, not a *Node, a
// Children slice or a Nodes or NodesByLabel result, and not a Text or a
// Value() string either, since the next parse writes over the text slab. A
// caller that keeps a string past Release copies it first. A document that
// is never released is left to the collector as before.
func (d *Document) Release() {
	a := d.mem
	if a == nil {
		return
	}
	*d = Document{URI: d.URI, SourceBytes: d.SourceBytes}
	a.release()
}
