package xmltree

import (
	"hash/maphash"
	"strings"
	"sync"
	"unsafe"
)

// scratch is what a parse needs while it runs and no document keeps: the
// symbol table, the stacks and the label table under construction. It is
// pooled, so a stream of documents reuses it, and once a parse is over it
// holds nothing of the input or of the document.
type scratch struct {
	// The symbol table: every distinct tag and attribute name met so far in
	// syms, found through slots, an open-addressed table of syms indexes
	// plus one (0 is a free slot). The names are copied into chunks, names
	// the current one, that are only ever appended to.
	syms      []symbol
	slots     []int32
	names     []byte
	nameBytes int
	// gen stamps the symbols the current parse has met; see parser.local.
	gen uint32

	open []openElem
	// kids holds the finished children of every open element, those of the
	// innermost one last; an element that closes moves its run into the
	// parser's kidSlab.
	kids  []*Node
	attrs []rawAttr   // the attributes of the tag being scanned
	ns    []nsBinding // xmlns:prefix declarations of the open elements
	// The document's label table, entry 0 the text nodes', and labelOf the
	// entry of every node made so far.
	labelTab []labelEntry
	labelOf  []int32
}

// symbol is one distinct tag or attribute name.
type symbol struct {
	name  string // the scratch's copy
	hash  uint64
	local int32 // the symbol of the local part: itself when there is no prefix
	plen  int32 // the length of the part before the colon, 0 for none
	decl  bool  // an attribute of this name is a name space declaration

	// What the current document says of the symbol as a local name, valid
	// while gen is the scratch's.
	gen   uint32
	elem  Keep  // proj.Elements of it
	attr  bool  // proj.Attributes of it
	label int32 // its label-table entry, 0 while no node carries it

	// guess holds, per kind (guessChild, ...), the name that followed this
	// one the last time the guess missed: a symbol plus one, 0 for none.
	// Only what scanSymbol returned is ever put here, so every guess is a
	// name that name scanned and splitName accepted.
	guess [4]int32
}

// prefix is the part of the name before the colon, "" for none.
func (y *symbol) prefix() string { return y.name[:y.plen] }

// What a symbol's guesses are of: the name of the first child of an element
// of its name, of the element after one of its name closed, of the first
// attribute of an element of its name, and of the attribute after one of its
// name.
const (
	guessChild = iota
	guessSibling
	guessAttr
	guessNextAttr
)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// One odd document must not make every later parse carry its high-water
// mark. A symbol table that outgrew its bounds is left to the collector with
// its scratch; a stack longer than maxPooledSlots is let go on its own, so a
// large document (its labelOf has an entry per node) costs the next parse
// that stack, not the table.
const (
	maxPooledSymbols   = 4096
	maxPooledNameBytes = 64 << 10
	maxPooledSlots     = 16 << 10
)

// begin readies s for a parse.
func (s *scratch) begin() {
	s.gen++
	if s.gen == 0 {
		// The stamp wrapped: no symbol may look met already.
		for i := range s.syms {
			s.syms[i].gen = 0
		}
		s.gen = 1
	}
	s.open, s.kids, s.attrs, s.ns, s.labelOf = s.open[:0], s.kids[:0], s.attrs[:0], s.ns[:0], s.labelOf[:0]
	s.labelTab = append(s.labelTab[:0], labelEntry{})
}

// release returns s to the pool. It first clears the slots that point into
// a document or the input: ns and labelTab hold the scratch's own names.
func (s *scratch) release() {
	if len(s.syms) > maxPooledSymbols || s.nameBytes > maxPooledNameBytes {
		return
	}
	s.open, s.kids, s.attrs = pooled(s.open), pooled(s.kids), pooled(s.attrs)
	s.ns, s.labelTab, s.labelOf = pooled(s.ns), pooled(s.labelTab), pooled(s.labelOf)
	clear(s.open[:cap(s.open)])
	clear(s.kids[:cap(s.kids)])
	clear(s.attrs[:cap(s.attrs)])
	scratchPool.Put(s)
}

// pooled is stack x as the pool keeps it: nil past maxPooledSlots.
func pooled[T any](x []T) []T {
	if cap(x) > maxPooledSlots {
		return nil
	}
	return x
}

// nameSeed keys the symbol table's hash. Names come from outside input
// (PUT /document); a hash over the whole name that no input can predict is
// what keeps any set of names from piling into a few slots.
var nameSeed = maphash.MakeSeed()

// lookup returns the symbol of name, adding it on first sight; ok is false
// for a name splitName rejects. The local part of a prefixed name is added
// as a symbol of its own, though it may be no name by itself (the 1b of
// a:1b): only what name scanned is ever looked up, so such a symbol is found
// only as a local part.
func (s *scratch) lookup(name string) (sym int32, ok bool) {
	h := maphash.String(nameSeed, name)
	mask := uint64(len(s.slots) - 1)
	for i := h; len(s.slots) > 0; i++ {
		j := s.slots[i&mask]
		if j == 0 {
			break
		}
		if y := &s.syms[j-1]; y.hash == h && y.name == name {
			return j - 1, true
		}
	}
	prefix, local, ok := splitName(name)
	if !ok {
		return 0, false
	}
	y := symbol{name: s.clone(name), hash: h, decl: prefix == "xmlns" || local == "xmlns"}
	if prefix != "" {
		y.plen = int32(len(prefix))
		y.local, _ = s.lookup(local)
	} else {
		y.local = int32(len(s.syms))
	}
	sym = int32(len(s.syms))
	s.syms = append(s.syms, y)
	if 2*len(s.syms) > len(s.slots) {
		s.slots = make([]int32, max(64, 2*len(s.slots)))
		for i := range s.syms {
			s.place(int32(i))
		}
	} else {
		s.place(sym)
	}
	return sym, true
}

// place puts symbol i into the first free slot from its hash on.
func (s *scratch) place(i int32) {
	mask := uint64(len(s.slots) - 1)
	for k := s.syms[i].hash; ; k++ {
		if s.slots[k&mask] == 0 {
			s.slots[k&mask] = i + 1
			return
		}
	}
}

// clone copies name into the name chunks. A Label is one of these copies,
// shared by every document that carries it, and pins no input.
func (s *scratch) clone(name string) string {
	s.nameBytes += len(name)
	if len(name) > cap(s.names)-len(s.names) {
		if len(name) > maxNameChunk/4 {
			return strings.Clone(name)
		}
		s.names = make([]byte, 0, min(max(2*cap(s.names), minNameChunk), maxNameChunk))
	}
	at := len(s.names)
	s.names = append(s.names, name...)
	return unsafe.String(&s.names[at], len(name))
}

const (
	minNameChunk = 512
	maxNameChunk = 8 << 10
)

// stamp puts what proj says of each of its names on that name's symbol, for
// the parse begin started. The empty name and one splitName rejects are no
// local name of any tag and are skipped.
func (s *scratch) stamp(proj *Projection) {
	for name, keep := range proj.Elements {
		if y := s.current(name); y != nil {
			y.elem = keep
		}
	}
	for name, want := range proj.Attributes {
		if y := s.current(name); y != nil {
			y.attr = want
		}
	}
}

// current returns the symbol of name as the parse sees it (refresh), or nil
// for the empty name and one splitName rejects.
func (s *scratch) current(name string) *symbol {
	if name == "" {
		return nil
	}
	i, ok := s.lookup(name)
	if !ok {
		return nil
	}
	y := &s.syms[i]
	y.refresh(s.gen)
	return y
}

// refresh clears what a parse before the one of generation gen said of y.
func (y *symbol) refresh(gen uint32) {
	if y.gen != gen {
		y.gen, y.elem, y.attr, y.label = gen, 0, false, 0
	}
}

// local returns the symbol of symbol i's local name, with what the current
// document says of that name. Symbols outlive documents: stamp put the
// projection's flags on the names it holds, and the first look of a parse at
// any other symbol clears what an earlier parse left there, the label-table
// entry included. The name of a local symbol is the local part, which is the
// name stamp looked up, so its flags are what the projection says of it. The
// pointer is good until the next lookup.
func (p *parser) local(i int32) *symbol {
	l := &p.syms[p.syms[i].local]
	l.refresh(p.gen)
	return l
}
