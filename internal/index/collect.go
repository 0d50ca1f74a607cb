package index

import (
	"slices"
	"strings"

	"repro/internal/xmltree"
)

// The collector is the one pass over a document that extraction is built
// on. A document has many nodes but few distinct keys and fewer distinct
// root-to-node label paths (the observation behind DataGuides and path
// indexes), so the pass names each of them once and works on numbers:
//
//   - a key is interned the first time its label, name, name-value pair or
//     word is met. There is one table per kind, keyed by what the node
//     itself holds, so a look-up concatenates nothing; the key's string is
//     appended once to a buffer all keys of the document share.
//   - a prefix is the escaped label path "/e<a>/e<b>/…" of an element. It is
//     interned once per distinct (parent prefix, label) in a buffer all
//     prefixes share, and a stack indexed by depth carries the prefix of
//     every open element, so no node walks up to its ancestors.
//   - the stored path of a key occurrence is prefix + "/" + escape(key). The
//     pass records only that the pair (key, prefix) occurred; the bytes are
//     written when the extraction is assembled, once per pair.
//   - identifiers are logged as (key, node) in visit order and dealt out to
//     the keys afterwards by a counting sort, which keeps each key's list in
//     pre order, the property the LUI look-up relies on to avoid sort
//     operators (Section 5.3).
//
// What comes out is, by construction and by TestExtractMatchesReference,
// what one NodeKeys and one PathOf call per key occurrence would give.
type collector struct {
	paths, ids bool // what to record besides the keys

	// Key tables. An attribute value key is found under its name key.
	elems, attrs, words map[string]int32
	attrVals            map[attrVal]int32
	keys                []keyState
	keyBuf              []byte // the keys' strings, back to back

	// Prefix table. Prefix 0 is the empty prefix of the root element; prefix
	// p is prefixBuf[prefixEnd[p-1]:prefixEnd[p]].
	prefixBuf []byte
	prefixEnd []int
	open      []int32 // open[d] is the prefix of the open element at depth d

	// seen holds every (key, prefix) pair met so far. For an element key the
	// pair's path is itself a prefix, that of the element's children, and
	// the value is its number; it is zero for the other kinds.
	seen      map[uint64]int32
	links     []pathLink // the prefixes of each key, chained from keyState.head
	pathBytes int        // the length of all the links' paths together

	log []occurrence // (key, node) in visit order
}

type attrVal struct {
	name  int32 // the name's key
	value string
}

// keyState is what the pass knows about one key.
type keyState struct {
	off, end int // the key's string in keyBuf

	lastNode   int32 // the last text node a word key was recorded for
	lastPrefix int32 // the prefix the key was last recorded under
	head       int32 // the latest of the key's links, -1 for none
	nPaths     int32
	idOff, nID int32 // the key's identifiers in the dealt-out list
}

type pathLink struct {
	prefix int32
	next   int32
}

type occurrence struct {
	key  int32
	node int32 // index into Document.Nodes
}

// collect runs the pass. paths and ids select what is recorded besides the
// set of keys.
func collect(doc *xmltree.Document, skipWords, paths, ids bool) *collector {
	nodes := doc.Nodes()
	// Size hints only, from what XMark-like documents hold: a distinct word
	// per 64 bytes, one and a half times as many keys, of 8 bytes, twice as
	// many (key, prefix) pairs, three key occurrences per node.
	hint := int(doc.SourceBytes / 64)
	c := &collector{
		paths:    paths,
		ids:      ids,
		elems:    make(map[string]int32),
		attrs:    make(map[string]int32),
		attrVals: make(map[attrVal]int32),
		keys:     make([]keyState, 0, hint+hint/2),
		keyBuf:   make([]byte, 0, 12*hint),
	}
	if !skipWords {
		c.words = make(map[string]int32, hint)
	}
	if paths {
		c.seen = make(map[uint64]int32, 2*hint)
		c.links = make([]pathLink, 0, 2*hint)
		c.prefixEnd = []int{0}
		c.open = []int32{0}
	}
	if ids {
		c.log = make([]occurrence, 0, 3*len(nodes))
	}
	for i, n := range nodes {
		node := int32(i)
		var parent int32 // the prefix of the enclosing element
		if paths {
			parent = c.open[n.ID.Depth-1]
		}
		switch n.Kind {
		case xmltree.Element:
			k := c.intern(c.elems, n.Label, elementPrefix)
			c.recordID(k, node)
			if paths {
				c.open = append(c.open[:n.ID.Depth], c.childPrefix(parent, k))
			}
		case xmltree.Attribute:
			k := c.intern(c.attrs, n.Label, attrPrefix)
			c.record(k, node, parent)
			c.record(c.internAttrValue(k, n.Text), node, parent)
		case xmltree.Text:
			if skipWords {
				continue
			}
			for w, at := xmltree.NextWord(n.Text, 0); w != ""; w, at = xmltree.NextWord(n.Text, at) {
				k := c.intern(c.words, w, wordPrefix)
				// A text node counts once for a word it repeats.
				if ks := &c.keys[k]; ks.lastNode != node {
					ks.lastNode = node
					c.record(k, node, parent)
				}
			}
		}
	}
	return c
}

// intern returns the key of kind prefix (e, a or w) for the given label,
// name or word, creating it on first sight.
func (c *collector) intern(table map[string]int32, s, prefix string) int32 {
	k, ok := table[s]
	if !ok {
		start := len(c.keyBuf)
		c.keyBuf = append(append(c.keyBuf, prefix...), s...)
		k = c.newKey(start)
		table[s] = k
	}
	return k
}

// internAttrValue returns the name-value key a‖name⎵value of an attribute
// whose name key is name.
func (c *collector) internAttrValue(name int32, value string) int32 {
	av := attrVal{name: name, value: value}
	k, ok := c.attrVals[av]
	if !ok {
		start := len(c.keyBuf)
		nk := c.keys[name]
		c.keyBuf = append(c.keyBuf, c.keyBuf[nk.off:nk.end]...)
		c.keyBuf = append(append(c.keyBuf, ' '), value...)
		k = c.newKey(start)
		c.attrVals[av] = k
	}
	return k
}

func (c *collector) newKey(start int) int32 {
	c.keys = append(c.keys, keyState{off: start, end: len(c.keyBuf), lastNode: -1, lastPrefix: -1, head: -1})
	return int32(len(c.keys) - 1)
}

// record notes one occurrence of an attribute or word key: its identifier,
// and its path if the key was not met under this prefix before.
func (c *collector) record(k, node, prefix int32) {
	c.recordID(k, node)
	ks := &c.keys[k]
	if !c.paths || ks.lastPrefix == prefix {
		return
	}
	ks.lastPrefix = prefix
	pair := uint64(k)<<32 | uint64(prefix)
	if _, ok := c.seen[pair]; !ok {
		c.seen[pair] = 0
		c.link(k, prefix)
	}
}

func (c *collector) recordID(k, node int32) {
	if c.ids {
		c.log = append(c.log, occurrence{key: k, node: node})
		c.keys[k].nID++
	}
}

// link adds prefix to the key's paths.
func (c *collector) link(k, prefix int32) {
	ks := &c.keys[k]
	c.links = append(c.links, pathLink{prefix: prefix, next: ks.head})
	ks.head = int32(len(c.links) - 1)
	ks.nPaths++
	c.pathBytes += c.pathLen(prefix, k)
}

// childPrefix returns the prefix of the children of an element with key k
// under the given prefix. Creating it is also the first sight of the pair
// (k, parent), whose path is the new prefix.
func (c *collector) childPrefix(parent, k int32) int32 {
	pair := uint64(k)<<32 | uint64(parent)
	p, ok := c.seen[pair]
	if !ok {
		c.prefixBuf = c.appendPath(c.prefixBuf, parent, k)
		c.prefixEnd = append(c.prefixEnd, len(c.prefixBuf))
		p = int32(len(c.prefixEnd) - 1)
		c.seen[pair] = p
		c.link(k, parent)
	}
	return p
}

// appendPath appends the stored path of key k under the prefix: the prefix,
// a slash, the escaped key.
func (c *collector) appendPath(dst []byte, prefix, k int32) []byte {
	if prefix > 0 {
		// dst may be prefixBuf itself: append copies out of the old array
		// if it has to grow.
		dst = append(dst, c.prefixBuf[c.prefixEnd[prefix-1]:c.prefixEnd[prefix]]...)
	}
	dst = append(dst, '/')
	ks := &c.keys[k]
	return appendEscaped(dst, c.keyBuf[ks.off:ks.end])
}

// pathLen is the length of what appendPath appends.
func (c *collector) pathLen(prefix, k int32) int {
	n := 1
	if prefix > 0 {
		n += c.prefixEnd[prefix] - c.prefixEnd[prefix-1]
	}
	ks := &c.keys[k]
	return n + escapedLen(c.keyBuf[ks.off:ks.end])
}

// sortedKey is one key of the document with its string.
type sortedKey struct {
	key string
	k   int32
}

// sortedKeys returns the keys in string order. Their strings are sub-slices
// of one string, the document's own copy of all its keys.
func (c *collector) sortedKeys() []sortedKey {
	all := string(c.keyBuf)
	out := make([]sortedKey, len(c.keys))
	for k := range c.keys {
		ks := &c.keys[k]
		out[k] = sortedKey{key: all[ks.off:ks.end], k: int32(k)}
	}
	// No two keys share a string: the kinds differ in their first byte, and
	// an attribute name holds no space, so it is no name-value key.
	slices.SortFunc(out, func(a, b sortedKey) int { return strings.Compare(a.key, b.key) })
	return out
}

// dealIDs returns every logged identifier, grouped by key: the identifiers
// of key k are the nID ones from idOff on, in pre order.
func (c *collector) dealIDs(nodes []*xmltree.Node) []xmltree.NodeID {
	var off int32
	for k := range c.keys {
		ks := &c.keys[k]
		ks.idOff = off
		off += ks.nID
		ks.nID = 0
	}
	ids := make([]xmltree.NodeID, len(c.log))
	for _, o := range c.log {
		ks := &c.keys[o.key]
		ids[ks.idOff+ks.nID] = nodes[o.node].ID
		ks.nID++
	}
	return ids
}

// KeysAndPaths returns the distinct index keys of a document and the
// distinct stored label paths of their occurrences: what NodeKeys and PathOf
// yield over all nodes, each string once, keys in sorted order.
func KeysAndPaths(doc *xmltree.Document) (keys, paths []string) {
	c := collect(doc, false, true, false)
	sorted := c.sortedKeys()
	keys = make([]string, len(sorted))
	paths = make([]string, 0, len(c.links))
	var buf []byte
	for i, sk := range sorted {
		keys[i] = sk.key
		for l := c.keys[sk.k].head; l >= 0; l = c.links[l].next {
			buf = c.appendPath(buf[:0], c.links[l].prefix, sk.k)
			paths = append(paths, string(buf))
		}
	}
	return keys, paths
}
