// Package twigjoin implements holistic twig joins over sorted streams of
// (pre, post, depth) structural identifiers, the matching machinery behind
// the LUI and 2LUPI look-ups (Sections 5.3-5.4; the paper builds on the
// holistic twig join of Bruno, Koudas and Srivastava [7]).
//
// The inputs are, for each query node, the stream of structural IDs of the
// document nodes carrying that node's label, sorted by pre — exactly what
// the LUI index stores per (key, URI). Match decides whether the document
// embeds the whole twig.
//
// The algorithm is a holistic bottom-up pass. For each query node q it
// computes the candidate set C(q): the stream elements that have, for every
// child c of q, a descendant (or child, for parent-child edges) in C(c).
// Because the streams are sorted by pre and a subtree is a contiguous pre
// interval, the ancestor-descendant check is one binary search; parent-child
// additionally scans the descendant interval for the right depth. The twig
// matches iff C(root) is non-empty, and every element of C(root) heads at
// least one full embedding. Like TwigStack, the pass never materializes
// per-path intermediate results.
//
// The package also provides binary structural semijoins, used by the
// ablation study comparing holistic against binary-join look-up plans.
package twigjoin

import (
	"sort"

	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Stream is a list of structural identifiers sorted by pre rank.
type Stream []xmltree.NodeID

// Streams maps each pattern node to its input stream.
type Streams map[*pattern.Node]Stream

// Match reports whether a document whose label streams are given embeds the
// twig t. A pattern root with a Child axis must match the document root
// (pre rank 1). Missing streams are treated as empty.
func Match(t *pattern.Tree, streams Streams) bool {
	return len(Candidates(t, streams)) > 0
}

// Candidates returns the candidate set C(root): the stream elements of the
// pattern root that head at least one embedding of the whole twig.
func Candidates(t *pattern.Tree, streams Streams) Stream {
	if t == nil || t.Root == nil {
		return nil
	}
	c := candidates(t.Root, streams)
	if t.Root.Axis == pattern.Child {
		// The pattern root must be the document root element.
		var filtered Stream
		for _, id := range c {
			if id.Pre == 1 {
				filtered = append(filtered, id)
			}
		}
		return filtered
	}
	return c
}

func candidates(q *pattern.Node, streams Streams) Stream {
	own := streams[q]
	if len(own) == 0 {
		return nil
	}
	if len(q.Children) == 0 {
		return own
	}
	kids := make([]Stream, len(q.Children))
	for i, c := range q.Children {
		kids[i] = candidates(c, streams)
		if len(kids[i]) == 0 {
			return nil
		}
	}
	var out Stream
	for _, id := range own {
		ok := true
		for i, c := range q.Children {
			if !hasMatchBelow(id, kids[i], c.Axis) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// hasMatchBelow reports whether the sorted stream s contains a descendant
// of anc (axis Descendant) or a child of anc (axis Child).
func hasMatchBelow(anc xmltree.NodeID, s Stream, axis pattern.Axis) bool {
	// First element strictly after anc in preorder.
	i := sort.Search(len(s), func(i int) bool { return s[i].Pre > anc.Pre })
	if axis == pattern.Descendant {
		// Descendants occupy a contiguous pre interval right after anc;
		// if the first following element is not a descendant, none is.
		return i < len(s) && s[i].Post < anc.Post
	}
	for ; i < len(s) && s[i].Post < anc.Post; i++ {
		if s[i].Depth == anc.Depth+1 {
			return true
		}
	}
	return false
}

// Semijoin returns the elements of ancestors having at least one descendant
// (or child, with parentChild) in descendants. Both streams must be sorted
// by pre; the result preserves order.
func Semijoin(ancestors, descendants Stream, axis pattern.Axis) Stream {
	var out Stream
	for _, a := range ancestors {
		if hasMatchBelow(a, descendants, axis) {
			out = append(out, a)
		}
	}
	return out
}

// MatchBinary decides the same predicate as Match using a cascade of binary
// structural semijoins (one per pattern edge, bottom-up). It exists for the
// ablation bench comparing holistic and binary plans; results are identical.
func MatchBinary(t *pattern.Tree, streams Streams) bool {
	if t == nil || t.Root == nil {
		return false
	}
	var reduce func(q *pattern.Node) Stream
	reduce = func(q *pattern.Node) Stream {
		own := streams[q]
		for _, c := range q.Children {
			cs := reduce(c)
			if len(cs) == 0 {
				return nil
			}
			own = Semijoin(own, cs, c.Axis)
			if len(own) == 0 {
				return nil
			}
		}
		return own
	}
	c := reduce(t.Root)
	if t.Root.Axis == pattern.Child {
		for _, id := range c {
			if id.Pre == 1 {
				return true
			}
		}
		return false
	}
	return len(c) > 0
}

// StreamsFromDocument builds the per-pattern-node label streams of one
// parsed document: for each pattern node, the IDs of the document's
// element/attribute nodes with that label (and kind), plus — when the
// pattern node carries a word predicate — nothing extra: predicates are
// applied by the caller. It is a convenience for tests and for the no-index
// evaluation path.
func StreamsFromDocument(t *pattern.Tree, doc *xmltree.Document) Streams {
	streams := make(Streams)
	t.Walk(func(q *pattern.Node) {
		var s Stream
		for _, n := range doc.NodesByLabel(q.Label) {
			if q.IsAttr != (n.Kind == xmltree.Attribute) {
				continue
			}
			s = append(s, n.ID)
		}
		streams[q] = s
	})
	return streams
}
