package idblock

import "repro/internal/xmltree"

// Sets that live no longer than a request are carved from an Arena: the Set,
// its blocks, the memo of its decoded blocks and the identifiers of those
// blocks. A carved set decodes a block into the arena its caller hands to
// BlockIn; the index look-up hands it the one the set came from. Every
// carving method takes a nil *Arena for the heap.
//
// Slots are carved from chunks of at least *Chunk slots, about 4 KB, so
// that a fresh arena allocates about what its request uses, and Reset keeps
// at most *Keep slots of each kind, about 200 KB: more than a scan query's
// look-up on the gate corpus carves, not so much that every later request
// carries one odd query's.
const (
	setChunk, setKeep     = 48, 2 << 10
	blockChunk, blockKeep = 64, 4 << 10
	memoChunk, memoKeep   = 128, 8 << 10
	idChunk, idKeep       = 384, 16 << 10
)

// set returns a zeroed set, carved when a is not nil.
func (a *Arena) set() *Set {
	if a == nil {
		return new(Set)
	}
	s := &a.sets.Take(1, setChunk)[0]
	s.scoped = true
	return s
}

// blockSlice returns n zeroed blocks.
func (a *Arena) blockSlice(n int) []block {
	if a == nil {
		return make([]block, n)
	}
	return a.blocks.Take(n, blockChunk)
}

// memo returns a memo of n decoded blocks, all nil.
func (a *Arena) memo(n int) [][]xmltree.NodeID {
	if a == nil {
		return make([][]xmltree.NodeID, n)
	}
	return a.memos.Take(n, memoChunk)
}

// IDs returns an empty identifier slice with capacity n, carved from a or
// made on the heap when a is nil.
func (a *Arena) IDs(n int) []xmltree.NodeID {
	if a == nil {
		return make([]xmltree.NodeID, 0, n)
	}
	return a.ids.Take(n, idChunk)[:0]
}

// Bytes returns the bytes carved from a since its last Reset.
func (a *Arena) Bytes() int64 {
	return a.sets.Bytes() + a.blocks.Bytes() + a.memos.Bytes() + a.ids.Bytes()
}

// Reset clears everything carved from a: every set, block and identifier
// slice it handed out is invalid afterwards.
func (a *Arena) Reset() {
	a.sets.Reset(setKeep)
	a.blocks.Reset(blockKeep)
	a.memos.Reset(memoKeep)
	a.ids.Reset(idKeep)
}
