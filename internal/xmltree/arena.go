package xmltree

import (
	"slices"
	"sync"
)

// arena is the memory a Document's nodes and indexes live in, all but the
// text: the chunks of the node slab and of the Children slab, the one
// allocation behind Nodes and NodesByLabel, the per-label lists and the
// label map. A parse takes a pooled arena and fills it; Release clears it
// and pools it again, so that the next parse reuses its chunks instead of
// allocating. The text slab is not in it: a Text or Value kept past Release
// (a result row's column) must stay what it was.
type arena struct {
	nodes   chunks[Node]
	kids    chunks[*Node]
	index   []*Node
	byLabel [][]*Node
	labels  map[string]int32
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// A pooled arena keeps at most maxPooledChunks chunks of each slab and at
// most maxPooledSlots slots of each in all, the largest chunks first. So one
// large document does not make every later parse carry its chunks, and the
// chunks a parse had to make because no free one had room do not pile up.
const maxPooledChunks = 8

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

// reset clears the used chunks and keeps, of all, the largest that fit the
// bounds.
func (c *chunks[T]) reset() {
	for i, ch := range c.list[:c.used] {
		clear(ch)
		c.list[i] = ch[:0]
	}
	c.used = 0
	slices.SortFunc(c.list, func(a, b []T) int { return cap(b) - cap(a) })
	kept, slots := 0, 0
	for _, ch := range c.list {
		if kept < maxPooledChunks && slots+cap(ch) <= maxPooledSlots {
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
	a.nodes.reset()
	a.kids.reset()
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

// Release hands the memory of d's nodes and indexes to later parses: the
// node slab, the Children slices and the Nodes and NodesByLabel indexes,
// cleared. Afterwards d reads as empty (no Root, no nodes, NodesScanned 0;
// URI and SourceBytes stay), and a second call does nothing.
//
// Only the document's owner may call it, once nothing reads its nodes any
// more: a *Node, a Children slice or a Nodes or NodesByLabel result kept
// past Release reads another document's nodes or none. What a node handed
// out as a string stays valid: a Text or Value lies in the text slab, which
// is not recycled (it pins its chunk as before), or in a string of its own,
// a Content is built afresh, and a Label is the symbol table's copy. A
// document that is never released is left to the collector as before.
func (d *Document) Release() {
	a := d.mem
	if a == nil {
		return
	}
	*d = Document{URI: d.URI, SourceBytes: d.SourceBytes}
	a.release()
}
