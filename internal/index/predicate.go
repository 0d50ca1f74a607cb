package index

import (
	"repro/internal/pattern"
	"repro/internal/twigjoin"
	"repro/internal/xmltree"
)

// DocKeys is a parsed document's index keys, node by node, collected once
// for the look-up predicates that read them many times.
type DocKeys struct {
	entries []nodeKey // in document order, each node's keys in NodeKeys order
	set     map[string]bool
}

type nodeKey struct {
	n   *xmltree.Node
	key string
}

// CollectDocKeys collects the index keys of d's nodes.
func CollectDocKeys(d *xmltree.Document) *DocKeys {
	dk := &DocKeys{set: make(map[string]bool, d.NodeCount())}
	for _, n := range d.Nodes() {
		for _, k := range NodeKeys(n) {
			dk.entries = append(dk.entries, nodeKey{n, k})
			dk.set[k] = true
		}
	}
	return dk
}

// DocPredicate returns a function deciding, from a document's keys alone,
// whether the look-up of the tree pattern under the strategy would return
// that document — i.e. the per-document semantics of Sections 5.1-5.4
// without a key-value store in the loop.
//
// It serves two purposes: differential testing (filtering a corpus with
// the predicate must agree exactly with LookupPattern against a loaded
// index, which the test suite asserts), and the statistics-driven index
// advisor of package advisor (the paper's Sections 8.5/9 future work),
// which evaluates the predicate on a corpus sample to estimate look-up
// selectivity per strategy without building any index.
func DocPredicate(s Strategy, t *pattern.Tree) func(*DocKeys) bool {
	aug := augment(t)
	switch s {
	case LU:
		keys := aug.distinctKeys()
		return func(d *DocKeys) bool { return d.hasKeys(keys) }
	case LUP:
		paths := aug.queryPaths()
		return func(d *DocKeys) bool { return d.matchesPaths(paths) }
	case LUI, TwoLUPI:
		// 2LUPI returns the same documents as LUI (Section 5.4).
		return func(d *DocKeys) bool { return d.matchesTwig(aug) }
	default:
		return func(*DocKeys) bool { return false }
	}
}

func (d *DocKeys) hasKeys(keys []string) bool {
	for _, k := range keys {
		if !d.set[k] {
			return false
		}
	}
	return true
}

// matchesPaths mirrors the LUP look-up: every root-to-leaf query path must
// match one of the document's data paths.
func (d *DocKeys) matchesPaths(queryPaths [][]QueryStep) bool {
next:
	for _, qp := range queryPaths {
		last := qp[len(qp)-1].Key
		for _, e := range d.entries {
			if e.key == last && MatchPath(qp, PathOf(e.n, e.key)) {
				continue next
			}
		}
		return false
	}
	return true
}

// matchesTwig mirrors the LUI look-up: the holistic twig join over the
// document's per-key identifier streams (including virtual word nodes)
// must find an embedding.
func (d *DocKeys) matchesTwig(aug *augmented) bool {
	// Streams per key, as the index would store them.
	streams := make(map[string]twigjoin.Stream)
	wanted := make(map[string]bool)
	aug.tree.Walk(func(n *pattern.Node) { wanted[aug.keys[n]] = true })
	for _, e := range d.entries {
		if wanted[e.key] {
			streams[e.key] = append(streams[e.key], e.n.ID)
		}
	}
	in := make(twigjoin.Streams)
	ok := true
	aug.tree.Walk(func(n *pattern.Node) {
		s := streams[aug.keys[n]]
		if len(s) == 0 {
			ok = false
			return
		}
		in[n] = s
	})
	return ok && twigjoin.Match(aug.tree, in)
}
