package index

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"unsafe"

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
//
// A collector is pooled: its tables and slices are cleared between
// documents, not made again, and nothing an extraction returns points into
// them.
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

	log    []occurrence     // (key, node) in visit order
	dealt  []xmltree.NodeID // the log dealt out by key; see dealIDs
	sorted []sortedKey      // sortedKeys' answer
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

var collectorPool = sync.Pool{New: func() any {
	return &collector{
		elems:    make(map[string]int32),
		attrs:    make(map[string]int32),
		words:    make(map[string]int32),
		attrVals: make(map[attrVal]int32),
		seen:     make(map[uint64]int32),
	}
}}

// maxPooledBytes bounds what a pooled collector holds. One odd document (a
// deep one has a prefix per level, each as long as its depth) must not make
// every later extraction carry its high-water mark: a collector that grew
// past this is left to the garbage collector. A 16 KB XMark document needs
// about 80 KB, a 64 KB one about a quarter of the bound.
const maxPooledBytes = 1 << 20

// collect runs the pass on a collector from the pool; the caller gives it
// back with release. paths and ids select what is recorded besides the set
// of keys.
func collect(doc *xmltree.Document, skipWords, paths, ids bool) *collector {
	c := collectorPool.Get().(*collector)
	c.paths, c.ids = paths, ids
	if paths {
		c.prefixEnd = append(c.prefixEnd, 0)
		c.open = append(c.open, 0)
	}
	for i, n := range doc.Nodes() {
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

// release clears c and returns it to the pool. The maps' keys are the
// document's labels and text, so clearing them is also what keeps the pool
// from pinning the document.
func (c *collector) release() {
	if c.size() > maxPooledBytes {
		return
	}
	clear(c.elems)
	clear(c.attrs)
	clear(c.words)
	clear(c.attrVals)
	clear(c.seen)
	c.keys, c.keyBuf = c.keys[:0], c.keyBuf[:0]
	c.prefixBuf, c.prefixEnd, c.open = c.prefixBuf[:0], c.prefixEnd[:0], c.open[:0]
	c.links, c.pathBytes = c.links[:0], 0
	c.log, c.dealt = c.log[:0], c.dealt[:0]
	clear(c.sorted) // its strings are the extraction's
	c.sorted = c.sorted[:0]
	collectorPool.Put(c)
}

// size is about the bytes c holds: its slices' capacity, and for the maps,
// which keep the room they grew to, about 32 bytes an entry.
func (c *collector) size() int {
	return bytesOf(c.keys) + bytesOf(c.keyBuf) + bytesOf(c.prefixBuf) + bytesOf(c.prefixEnd) +
		bytesOf(c.open) + bytesOf(c.links) + bytesOf(c.log) + bytesOf(c.dealt) + bytesOf(c.sorted) +
		32*(len(c.keys)+len(c.seen))
}

func bytesOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
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
	key  string
	head uint64 // the key's first 8 bytes, big-endian, zero-padded
	k    int32
}

// sortedKeys returns the keys in string order, in a slice that is c's until
// release. Their strings are sub-slices of all, which holds what keyBuf
// holds: the caller's copy of all the document's keys.
func (c *collector) sortedKeys(all string) []sortedKey {
	out := slices.Grow(c.sorted[:0], len(c.keys))[:len(c.keys)]
	c.sorted = out
	for k := range c.keys {
		ks := &c.keys[k]
		var head [8]byte
		copy(head[:], c.keyBuf[ks.off:ks.end])
		out[k] = sortedKey{key: all[ks.off:ks.end], head: binary.BigEndian.Uint64(head[:]), k: int32(k)}
	}
	// No two keys share a string: the kinds differ in their first byte, and
	// an attribute name holds no space, so it is no name-value key. Unequal
	// heads order like their strings (a short key's zero padding is no
	// greater than any byte); equal heads fall through to the strings.
	slices.SortFunc(out, func(a, b sortedKey) int {
		if a.head != b.head {
			return cmp.Compare(a.head, b.head)
		}
		return strings.Compare(a.key, b.key)
	})
	return out
}

// dealIDs returns every logged identifier, grouped by key: the identifiers
// of key k are the nID ones from idOff on, in pre order. The slice is the
// collector's, good until release.
func (c *collector) dealIDs(nodes []*xmltree.Node) []xmltree.NodeID {
	var off int32
	for k := range c.keys {
		ks := &c.keys[k]
		ks.idOff = off
		off += ks.nID
		ks.nID = 0
	}
	ids := slices.Grow(c.dealt, len(c.log))[:len(c.log)]
	c.dealt = ids
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
	defer c.release()
	sorted := c.sortedKeys(string(c.keyBuf))
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
