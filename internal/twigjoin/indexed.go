package twigjoin

import (
	"sort"
	"sync"
	"unsafe"

	"repro/internal/idblock"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// This file is the operate-on-compressed counterpart of twigjoin.go: the
// same holistic bottom-up candidate computation, but over blocked identifier
// sets (package idblock) instead of decoded streams. Three mechanisms keep
// the work proportional to the answer rather than the posting size:
//
//   - Block skipping. Before decoding an ancestor block, its summary header
//     is tested against each child candidate set's summary: an ancestor's
//     pre is strictly below its descendants' and its post strictly above,
//     so a block whose pre range starts at or after the child set's last
//     pre, or whose post range ends at or below the child set's lowest
//     post, cannot yield a candidate and is skipped whole.
//   - Lazy leaves. A leaf's candidate set is its raw Set; the parent probes
//     it block-wise, and a probe often resolves on headers alone (a block
//     that lies entirely inside an ancestor's descendant interval answers a
//     descendant probe without decoding).
//   - Galloping cursors. Ancestors are filtered in increasing pre order, so
//     each (parent, child) edge keeps a cursor at the previous probe's
//     boundary and advances by exponential search — a merge when the sides
//     are balanced, a binary search when one side is much smaller.
//
// The kernel is exact: candidatesIndexed agrees elementwise with Candidates,
// and so MatchIndexed with Match, on every input (the differential tests
// assert this on seeded random corpora).

// IndexedStreams maps each pattern node to its blocked identifier set.
type IndexedStreams map[*pattern.Node]*idblock.Set

// JoinStats counts the block-level work of the indexed joins that add to
// it. BlocksRead counts block-payload consultations (decodes are memoized
// inside the Set, so a consultation is not necessarily a fresh varint
// decode); BlocksSkipped counts blocks and probes resolved on headers
// alone.
type JoinStats struct {
	BlocksRead    int64
	BlocksSkipped int64
}

// summary are the bounds of a whole candidate set, the other half of every
// block-skip decision.
type summary struct {
	minPre, maxPre     int32
	minPost, maxPost   int32
	minDepth, maxDepth int32
}

// candView is one node's candidate set during the bottom-up pass: either a
// lazy unfiltered Set (leaves — probed block-wise, never decoded up front)
// or a decoded, filtered stream (internal nodes), with the set's summary.
// A root view that candidatesIndexed returns holds the pooled Scratch its
// stream lives in until release.
type candView struct {
	set   *idblock.Set
	ids   Stream
	sum   summary
	n     int
	owner *Scratch
}

// Scratch is the memory of the indexed joins one goroutine runs one after
// another: the candidate views, the per-edge cursors and the candidate
// streams of internal nodes. Each join sizes it from the pattern and the
// sizes of its sets before it starts, so nothing is allocated once the
// scratch has grown to the largest join, and the next join reuses it. The
// zero value is ready for use; a Scratch must not be shared between
// goroutines.
type Scratch struct {
	// Arena takes the block decodes of sets carved from an arena
	// (idblock.Set.BlockIn); it must outlive them. A nil Arena decodes them
	// on the heap.
	Arena *idblock.Arena

	views   []candView
	kids    []*candView
	cursors []probeCursor
	ids     Stream
	// What the current join has carved of each, and the most bytes one
	// join has held since the last Reset.
	nviews, nedges, nids int
	peak                 int64
}

var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// release returns the view's pooled scratch; the view's stream is invalid
// afterwards.
func (cv *candView) release() {
	if cv != nil && cv.owner != nil {
		sc := cv.owner
		cv.owner, cv.ids = nil, nil
		sc.Reset()
		scratches.Put(sc)
	}
}

// Peak returns the most bytes one join held in the scratch since the last
// Reset.
func (sc *Scratch) Peak() int64 { return sc.peak }

// Reset drops what the scratch holds of the joins so far, keeping its
// memory.
func (sc *Scratch) Reset() {
	clear(sc.views[:cap(sc.views)])
	clear(sc.kids[:cap(sc.kids)])
	sc.peak = 0
}

// start sizes the scratch for a join of the subtree at q: one view per
// node, one cursor per edge, and a candidate stream per node whose view is
// filtered, as long as its own set or limit.
func (sc *Scratch) start(q *pattern.Node, st IndexedStreams, pre1 bool, limit int) {
	var views, edges, ids int
	var walk func(n *pattern.Node, root bool)
	walk = func(n *pattern.Node, root bool) {
		views++
		edges += len(n.Children)
		if len(n.Children) > 0 || root && pre1 {
			k := st[n].Len()
			if root && limit > 0 {
				k = min(k, limit)
			}
			ids += k
		}
		for _, c := range n.Children {
			walk(c, false)
		}
	}
	walk(q, true)
	if cap(sc.views) < views {
		sc.views = make([]candView, views)
	}
	if cap(sc.kids) < edges {
		sc.kids = make([]*candView, edges)
		sc.cursors = make([]probeCursor, edges)
	}
	if cap(sc.ids) < ids {
		sc.ids = make(Stream, ids)
	}
	sc.views, sc.kids, sc.cursors, sc.ids = sc.views[:views], sc.kids[:edges], sc.cursors[:edges], sc.ids[:ids]
	sc.nviews, sc.nedges, sc.nids = 0, 0, 0
	held := int64(views)*int64(unsafe.Sizeof(candView{})) +
		int64(edges)*int64(unsafe.Sizeof(probeCursor{})+unsafe.Sizeof((*candView)(nil))) +
		int64(ids)*int64(unsafe.Sizeof(xmltree.NodeID{}))
	sc.peak = max(sc.peak, held)
}

// setSummary folds a Set's block headers into whole-set bounds; no payload
// is touched.
func setSummary(s *idblock.Set) summary {
	h := s.Header(0)
	sum := summary{h.MinPre, h.MaxPre, h.MinPost, h.MaxPost, h.MinDepth, h.MaxDepth}
	for i := 1; i < s.Blocks(); i++ {
		h := s.Header(i)
		sum.maxPre = max(sum.maxPre, h.MaxPre)
		sum.minPre = min(sum.minPre, h.MinPre)
		sum.maxPost = max(sum.maxPost, h.MaxPost)
		sum.minPost = min(sum.minPost, h.MinPost)
		sum.maxDepth = max(sum.maxDepth, h.MaxDepth)
		sum.minDepth = min(sum.minDepth, h.MinDepth)
	}
	return sum
}

// streamSummary computes the bounds of a non-empty decoded stream.
func streamSummary(s Stream) summary {
	sum := summary{
		minPre: s[0].Pre, maxPre: s[len(s)-1].Pre,
		minPost: s[0].Post, maxPost: s[0].Post,
		minDepth: s[0].Depth, maxDepth: s[0].Depth,
	}
	for _, id := range s[1:] {
		sum.minPost = min(sum.minPost, id.Post)
		sum.maxPost = max(sum.maxPost, id.Post)
		sum.minDepth = min(sum.minDepth, id.Depth)
		sum.maxDepth = max(sum.maxDepth, id.Depth)
	}
	return sum
}

// blockCanMatch reports whether an ancestor block with header h can contain
// an element having a descendant (Child: a child) in the candidate view cv.
// The conditions are necessary, never sufficient — false positives cost a
// decode, false negatives would cost correctness, so each follows directly
// from the interval containment of the pre/post scheme.
func blockCanMatch(h idblock.Header, cv *candView, axis pattern.Axis) bool {
	if h.MinPre >= cv.sum.maxPre || h.MaxPost <= cv.sum.minPost {
		return false
	}
	if axis == pattern.Child {
		// A child sits exactly one level below its parent.
		if h.MaxDepth+1 < cv.sum.minDepth || h.MinDepth+1 > cv.sum.maxDepth {
			return false
		}
	}
	return true
}

// probeCursor is the per-edge galloping state: the boundary "first element
// after the probed ancestor" only moves right as ancestors are probed in
// pre order, so each probe resumes where the last one stopped.
type probeCursor struct {
	pos   int // decoded-view index lower bound
	block int // lazy-view block index lower bound
}

// seekAfter returns the smallest j >= from with s[j].Pre > pre, by
// exponential search from `from` followed by a binary search in the bracket
// — O(log d) in the distance d advanced, not in len(s).
func seekAfter(s Stream, from int, pre int32) int {
	n := len(s)
	if from >= n || s[from].Pre > pre {
		return from
	}
	step := 1
	lo := from
	for lo+step < n && s[lo+step].Pre <= pre {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > n {
		hi = n
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return s[lo+i].Pre > pre })
}

// hasMatchBelowView is hasMatchBelow against a candidate view, advancing
// the edge's galloping cursor.
func hasMatchBelowView(anc xmltree.NodeID, cv *candView, axis pattern.Axis, cur *probeCursor, a *idblock.Arena, js *JoinStats) (bool, error) {
	if cv.ids != nil {
		j := seekAfter(cv.ids, cur.pos, anc.Pre)
		cur.pos = j
		if axis == pattern.Descendant {
			return j < len(cv.ids) && cv.ids[j].Post < anc.Post, nil
		}
		for ; j < len(cv.ids) && cv.ids[j].Post < anc.Post; j++ {
			if cv.ids[j].Depth == anc.Depth+1 {
				return true, nil
			}
		}
		return false, nil
	}
	return hasMatchBelowSet(anc, cv.set, axis, cur, a, js)
}

// hasMatchBelowSet probes a lazy Set block-wise. The block holding the
// boundary element is located by galloping over headers; descendant probes
// then often resolve on that block's post range alone, and child probes
// walk the descendant run skipping fully-contained blocks with no element
// at the child depth.
func hasMatchBelowSet(anc xmltree.NodeID, set *idblock.Set, axis pattern.Axis, cur *probeCursor, a *idblock.Arena, js *JoinStats) (bool, error) {
	nb := set.Blocks()
	bi := cur.block
	if bi < nb && set.Header(bi).MaxPre <= anc.Pre {
		step := 1
		lo := bi
		for lo+step < nb && set.Header(lo+step).MaxPre <= anc.Pre {
			lo += step
			step <<= 1
		}
		hi := lo + step
		if hi > nb {
			hi = nb
		}
		bi = lo + sort.Search(hi-lo, func(i int) bool { return set.Header(lo+i).MaxPre > anc.Pre })
	}
	cur.block = bi
	if bi == nb {
		return false, nil
	}
	if axis == pattern.Descendant {
		h := set.Header(bi)
		if h.MinPre > anc.Pre {
			// Every earlier block precedes anc, so the block's first element
			// is the boundary element; extreme post ranges decide without
			// decoding (descendant-contiguity: if the boundary element is not
			// a descendant, nothing later is).
			if h.MaxPost < anc.Post {
				js.BlocksSkipped++
				return true, nil
			}
			if h.MinPost > anc.Post {
				js.BlocksSkipped++
				return false, nil
			}
		}
		js.BlocksRead++
		ids, err := set.BlockIn(bi, a)
		if err != nil {
			return false, err
		}
		j := seekAfter(ids, 0, anc.Pre)
		return j < len(ids) && ids[j].Post < anc.Post, nil
	}
	for ; bi < nb; bi++ {
		h := set.Header(bi)
		if h.MinPre > anc.Pre {
			if h.MinPost > anc.Post {
				// No element of this block is a descendant, and the run is
				// contiguous: it ended at or before the block boundary.
				return false, nil
			}
			if h.MaxPost < anc.Post && (h.MinDepth > anc.Depth+1 || h.MaxDepth < anc.Depth+1) {
				// Entirely descendants, none at the child depth.
				js.BlocksSkipped++
				continue
			}
		}
		js.BlocksRead++
		ids, err := set.BlockIn(bi, a)
		if err != nil {
			return false, err
		}
		for j := seekAfter(ids, 0, anc.Pre); j < len(ids); j++ {
			if ids[j].Post >= anc.Post {
				return false, nil
			}
			if ids[j].Depth == anc.Depth+1 {
				return true, nil
			}
		}
	}
	return false, nil
}

// candidatesIndexed computes C(q) bottom-up over blocked sets, in a pooled
// Scratch that the returned view holds until its release. pre1 restricts
// the own-element scan to pre rank 1 (Child-axis roots must match the
// document root) and limit > 0 stops the scan after that many candidates;
// both apply only to the root call. A nil view means an empty candidate
// set.
func candidatesIndexed(q *pattern.Node, st IndexedStreams, js *JoinStats, pre1 bool, limit int) (*candView, error) {
	sc := scratches.Get().(*Scratch)
	sc.start(q, st, pre1, limit)
	cv, err := sc.candidates(q, st, js, pre1, limit)
	if cv == nil {
		sc.Reset()
		scratches.Put(sc)
		return nil, err
	}
	cv.owner = sc
	return cv, nil
}

// candidates is the recursion of candidatesIndexed, carving views, cursors
// and streams from the memory start sized.
func (sc *Scratch) candidates(q *pattern.Node, st IndexedStreams, js *JoinStats, pre1 bool, limit int) (*candView, error) {
	own := st[q]
	if own.Len() == 0 {
		return nil, nil
	}
	cv := &sc.views[sc.nviews]
	sc.nviews++
	if len(q.Children) == 0 && !pre1 {
		*cv = candView{set: own, sum: setSummary(own), n: own.Len()}
		return cv, nil
	}
	kids := sc.kids[sc.nedges : sc.nedges+len(q.Children)]
	cursors := sc.cursors[sc.nedges : sc.nedges+len(q.Children)]
	sc.nedges += len(q.Children)
	clear(cursors)
	for i, c := range q.Children {
		kv, err := sc.candidates(c, st, js, false, -1)
		if err != nil || kv == nil {
			return nil, err
		}
		kids[i] = kv
	}
	n := own.Len()
	if limit > 0 {
		n = min(n, limit)
	}
	out := sc.ids[sc.nids : sc.nids : sc.nids+n]
	sc.nids += n
scan:
	for bi := 0; bi < own.Blocks(); bi++ {
		h := own.Header(bi)
		if pre1 && (h.MinPre > 1 || h.MaxPre < 1) {
			js.BlocksSkipped++
			continue
		}
		for i, c := range q.Children {
			if !blockCanMatch(h, kids[i], c.Axis) {
				js.BlocksSkipped++
				continue scan
			}
		}
		js.BlocksRead++
		ids, err := own.BlockIn(bi, sc.Arena)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if pre1 && id.Pre != 1 {
				continue
			}
			ok := true
			for i, c := range q.Children {
				m, err := hasMatchBelowView(id, kids[i], c.Axis, &cursors[i], sc.Arena, js)
				if err != nil {
					return nil, err
				}
				if !m {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, id)
				if limit > 0 && len(out) >= limit {
					break scan
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	*cv = candView{ids: out, sum: streamSummary(out), n: len(out)}
	return cv, nil
}

// MatchIndexed decides the same predicate as Match over blocked sets,
// decoding only the blocks the headers cannot rule out and stopping at the
// first root candidate. Missing streams are treated as empty; js (optional)
// accumulates the block-level work. It runs in a pooled Scratch.
func MatchIndexed(t *pattern.Tree, st IndexedStreams, js *JoinStats) (bool, error) {
	if t == nil || t.Root == nil {
		return false, nil
	}
	if js == nil {
		js = &JoinStats{}
	}
	cv, err := candidatesIndexed(t.Root, st, js, t.Root.Axis == pattern.Child, 1)
	defer cv.release()
	return cv != nil && cv.n > 0, err
}

// MatchIndexed is the package's MatchIndexed in sc's memory; js must not be
// nil.
func (sc *Scratch) MatchIndexed(t *pattern.Tree, st IndexedStreams, js *JoinStats) (bool, error) {
	pre1 := t.Root.Axis == pattern.Child
	sc.start(t.Root, st, pre1, 1)
	cv, err := sc.candidates(t.Root, st, js, pre1, 1)
	return cv != nil && cv.n > 0, err
}
