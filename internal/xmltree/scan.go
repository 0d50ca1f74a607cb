package xmltree

import (
	"fmt"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Parse builds the tree for one document.
func Parse(uri string, data []byte) (*Document, error) {
	return ParseProjected(uri, data, nil)
}

// Keep says how much of the elements that carry one label a query reads.
type Keep uint8

const (
	// KeepNode builds the element itself.
	KeepNode Keep = 1 << iota
	// KeepText builds the element and every text node below it, which is
	// what Value reads.
	KeepText
	// KeepAll builds the element and every node below it, which is what
	// Content reads.
	KeepAll
)

// Projection names the nodes of a document a query can read; see
// ParseProjected. An element is built when its label has any Keep flag, an
// attribute when its name is in Attributes (attributes and elements are
// looked up apart, so one name can be wanted as either).
type Projection struct {
	Elements   map[string]Keep
	Attributes map[string]bool
}

// ParseProjected is Parse building only the nodes proj names: the same scan
// with the same checks, and so the same verdict and error text on every
// input, and the same count of every node into pre, post and depth, but a
// Node only for
//
//   - an element whose label is in proj.Elements,
//   - an attribute whose name is in proj.Attributes,
//   - a text node below an element whose label is flagged KeepText,
//   - any node below an element whose label is flagged KeepAll.
//
// A built node has the Label, Text, Kind and ID it has in the full tree. Its
// Parent is its nearest built ancestor and its Children are its nearest built
// descendants in document order, so Value of a KeepText element and Content
// of a KeepAll element return what they return on the full tree, and the
// axes can be read from ID.Depth. Document.Root is nil when the root element
// was not built; a document of which nothing is built is not an error. A nil
// proj builds everything.
func ParseProjected(uri string, data []byte, proj *Projection) (*Document, error) {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	return parseWith(s, arenaPool.Get().(*arena), uri, data, proj)
}

// parseWith is ParseProjected on the scratch s, building the document in the
// arena a, which it returns to the pool if the parse fails.
func parseWith(s *scratch, a *arena, uri string, data []byte, proj *Projection) (*Document, error) {
	s.begin()
	if proj != nil {
		s.stamp(proj)
	}
	// The scan reads data in place: what a built node keeps of it is copied
	// (keep) and nothing else of it outlives the call, so the caller's
	// buffer is free to change afterwards.
	p := parser{scratch: s, mem: a, src: unsafe.String(unsafe.SliceData(data), len(data)), proj: proj}
	if proj == nil {
		p.outer = KeepAll
	}
	p.tagsLeft = strings.Count(p.src, "<")
	err := p.scan()
	if err != nil {
		err = fmt.Errorf("xmltree: parsing %s: %w", uri, err)
	} else if !p.sawRoot {
		err = fmt.Errorf("%w: %s", ErrEmptyDocument, uri)
	}
	p.mem.nodes.settle(p.slab)
	p.mem.kids.settle(p.kidSlab)
	p.mem.text.settle(p.text)
	if err != nil {
		p.mem.release()
		return nil, err
	}
	doc := &Document{URI: uri, Root: p.root, SourceBytes: int64(len(data)), scanned: int(p.pre), hashed: p.hashed, mem: p.mem}
	doc.nodes, doc.byLabel, doc.labels = p.indexes()
	return doc, nil
}

// parser is the state of one scan. The scanner is a loop over src with an
// explicit stack of open elements; nothing in it recurses. What does not
// outlive the scan is in the pooled scratch.
type parser struct {
	*scratch

	src string // the caller's bytes, read in place
	pos int    // next unread byte

	// proj is the projection, nil for a full parse, and outer what the level
	// above the root element hands down: KeepAll for a full parse, which so
	// never looks at proj. pre and post count every node, built or not.
	proj  *Projection
	outer Keep

	root      *Node // the root element, if it was built
	sawRoot   bool
	pre, post int32

	// last is the symbol plus one of the last start or end tag, 0 before the
	// first, and after the guess of it that the next start tag's name is
	// looked up by: guessChild when that tag opened an element, guessSibling
	// when it closed one. hashed counts the names scanSymbol resolved.
	last   int32
	after  int
	hashed int

	// mem is the document's arena. Nodes are handed out of slab, the last
	// chunk of mem.nodes, in pre order; a full slab is followed by a chunk
	// of mem's, or by a new one sized by chunkSize. tagsLeft is the number
	// of "<" the scan loop has yet to reach, counted once before the scan.
	mem      *arena
	slab     []Node
	tagsLeft int

	// kidSlab, the last chunk of mem.kids, backs the Children slices; see
	// scratch.kids.
	kidSlab []*Node

	// text, the last chunk of mem.text, is what keep copies into, and
	// textNext the size of a projected parse's next chunk.
	text     []byte
	textNext int

	// Character data since the last tag: one piece in pend (usually a
	// sub-slice of src), or several joined in pendBuf.
	pend     string
	pendBuf  []byte
	pendMany bool
}

type openElem struct {
	el *Node // nil for an element the projection dropped
	// parent is what the nodes directly inside take for their Parent: el, or
	// for a dropped element its nearest built ancestor.
	parent *Node
	// keep is what the element's label and the labels of the elements
	// around it ask for: KeepText and KeepAll reach everything inside.
	keep   Keep
	sym    int32 // the symbol of the name in the start tag, prefix included
	kids   int   // len(parser.kids) when the element opened
	nsMark int   // len(parser.ns) when the element opened
}

// labelEntry is one entry of the per-document label table: the label and
// how many nodes carry it.
type labelEntry struct {
	label string
	nodes int
}

type rawAttr struct {
	sym   int32
	value string
}

// nsBinding records whether an xmlns:prefix declaration bound the prefix to
// the literal URL "xmlns"; see dropAttr.
type nsBinding struct {
	prefix  string
	isXmlns bool
}

// Byte classes of character data and attribute values.
const (
	cAmp  = 1 << iota // &
	cCR               // \r
	cGT               // >, which may end a "]]>"
	cLT               // <, illegal in attribute values
	cCtl              // a control character XML does not allow
	cHigh             // part of a multi-byte UTF-8 sequence
)

// Byte classes of names.
const (
	nByte  = 1 << iota // may appear in a name
	nStart             // may start one
)

var charClass, nameClass = func() (c, n [256]uint8) {
	for b := 0; b < 256; b++ {
		switch {
		case b == '&':
			c[b] = cAmp
		case b == '\r':
			c[b] = cCR
		case b == '>':
			c[b] = cGT
		case b == '<':
			c[b] = cLT
		case b < 0x20 && b != '\t' && b != '\n':
			c[b] = cCtl
		case b >= utf8.RuneSelf:
			c[b] = cHigh
		}
		switch {
		case 'A' <= b && b <= 'Z', 'a' <= b && b <= 'z', b == '_', b == ':', b >= utf8.RuneSelf:
			n[b] = nByte | nStart
		case '0' <= b && b <= '9', b == '-', b == '.':
			n[b] = nByte
		}
	}
	return c, n
}()

func classesOf(s string) (f uint8) {
	for i := 0; i < len(s); i++ {
		f |= charClass[s[i]]
	}
	return f
}

func isSpace(b byte) bool { return b == ' ' || b == '\n' || b == '\t' || b == '\r' }

func (p *parser) errorf(at int, format string, args ...any) error {
	line := 1 + strings.Count(p.src[:at], "\n")
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) eof() error { return p.errorf(len(p.src), "unexpected EOF") }

func (p *parser) scan() error {
	src := p.src
	for p.pos < len(src) {
		if src[p.pos] != '<' {
			end := len(src)
			if i := strings.IndexByte(src[p.pos:], '<'); i >= 0 {
				end = p.pos + i
			}
			text, err := p.chars(src[p.pos:end], p.pos, inText)
			if err != nil {
				return err
			}
			p.addText(text)
			p.pos = end
			continue
		}
		if p.pos+1 == len(src) {
			return p.eof()
		}
		p.tagsLeft--
		var err error
		switch src[p.pos+1] {
		case '/':
			err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(p.open) > 0 {
		return p.eof()
	}
	return nil
}

// What can need a closer look in the three places character data comes
// from. "]]>" is an error in text only, "<" in attribute values only, and a
// CDATA section holds no references.
const (
	inText  = cAmp | cCR | cGT | cCtl | cHigh
	inValue = cAmp | cCR | cLT | cCtl | cHigh
	inCDATA = cCR | cCtl | cHigh
)

// chars checks one run of character data, one attribute value or the content
// of one CDATA section, s at offset at, against the Char production and the
// rules of its place, and returns it with references expanded and line ends
// normalised. Most runs hold nothing to look at and come back as they are.
func (p *parser) chars(s string, at int, place uint8) (string, error) {
	f := classesOf(s) & place
	if f == 0 {
		return s, nil
	}
	if f&cLT != 0 {
		return "", p.errorf(at+strings.IndexByte(s, '<'), "unescaped < inside quoted string")
	}
	if f&cGT != 0 {
		if i := strings.Index(s, "]]>"); i >= 0 {
			return "", p.errorf(at+i, "unescaped ]]> not in CDATA section")
		}
	}
	if f&cCtl != 0 {
		for i := 0; i < len(s); i++ {
			if charClass[s[i]] == cCtl {
				return "", p.errorf(at+i, "illegal character code %U", rune(s[i]))
			}
		}
	}
	if f&cHigh != 0 {
		if !utf8.ValidString(s) {
			return "", p.errorf(at, "invalid UTF-8")
		}
		// U+FFFE and U+FFFF are the two multi-byte non-characters.
		for t := s; ; {
			i := strings.Index(t, "\xef\xbf")
			if i < 0 {
				break
			}
			if t[i+2] >= 0xbe {
				return "", p.errorf(at, "illegal character code %U", rune(0xff40+int(t[i+2])))
			}
			t = t[i+3:]
		}
	}
	if f&(cAmp|cCR) != 0 {
		return p.decode(s, at, f&cAmp != 0)
	}
	return s, nil
}

// decode turns \r\n and \r into \n and, if refs is set, expands entity and
// character references.
func (p *parser) decode(s string, at int, refs bool) (string, error) {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\r':
			b.WriteByte('\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
		case c == '&' && refs:
			text, n := reference(s[i:])
			if n == 0 {
				return "", p.errorf(at+i, "invalid character entity")
			}
			b.WriteString(text)
			i += n
		default:
			j := i + 1
			for j < len(s) && s[j] != '\r' && (s[j] != '&' || !refs) {
				j++
			}
			b.WriteString(s[i:j])
			i = j
		}
	}
	return b.String(), nil
}

// reference decodes the reference s starts with ("&...;") and returns its
// replacement text and its length in s, or 0 when it is not one of the five
// predefined entities or a reference to a character XML allows.
func reference(s string) (text string, n int) {
	if len(s) < 4 { // "&lt;" is the shortest
		return "", 0
	}
	if s[1] != '#' {
		switch {
		case strings.HasPrefix(s, "&lt;"):
			return "<", 4
		case strings.HasPrefix(s, "&gt;"):
			return ">", 4
		case strings.HasPrefix(s, "&amp;"):
			return "&", 5
		case strings.HasPrefix(s, "&apos;"):
			return "'", 6
		case strings.HasPrefix(s, "&quot;"):
			return `"`, 6
		}
		return "", 0
	}
	i, base := 2, rune(10)
	if s[i] == 'x' {
		i, base = 3, 16
	}
	start := i
	var r rune
	for ; i < len(s); i++ {
		var d rune
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		default:
			d = -1
		}
		if d < 0 {
			break
		}
		if r = r*base + d; r > utf8.MaxRune {
			return "", 0
		}
	}
	if i == start || i == len(s) || s[i] != ';' {
		return "", 0
	}
	// A surrogate code point becomes U+FFFD, as string(rune) has it; the
	// other code points outside Char are errors.
	if 0xd800 <= r && r <= 0xdfff {
		r = utf8.RuneError
	}
	if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xfffe || r == 0xffff {
		return "", 0
	}
	return string(r), i + 1
}

func (p *parser) addText(s string) {
	switch {
	case s == "":
	case p.pendMany:
		p.pendBuf = append(p.pendBuf, s...)
	case p.pend == "":
		p.pend = s
	default:
		p.pendBuf = append(append(p.pendBuf[:0], p.pend...), s...)
		p.pendMany = true
	}
}

// flushText turns the pending character data into a text node, unless it is
// all white space or outside the root element.
func (p *parser) flushText() {
	s := p.pend
	if p.pendMany {
		s = string(p.pendBuf)
		p.pendMany = false
	} else if s == "" {
		return
	}
	p.pend = ""
	if len(p.open) == 0 || strings.TrimSpace(s) == "" {
		return
	}
	p.pre++
	p.post++
	o := &p.open[len(p.open)-1]
	if o.keep&(KeepText|KeepAll) == 0 {
		return
	}
	n := p.newNode(0)
	n.Kind = Text
	n.Text = p.keep(s)
	n.ID = NodeID{Pre: p.pre, Post: p.post, Depth: int32(len(p.open)) + 1}
	n.Parent = o.parent
	p.kids = append(p.kids, n)
}

// name scans a name at p.pos and checks it the way encoding/xml does, but
// for the Unicode name tables: ASCII characters must be name characters,
// the first a name-start character, and the bytes valid UTF-8.
func (p *parser) name() (string, bool) {
	src, start := p.src, p.pos
	if start == len(src) || nameClass[src[start]]&nStart == 0 {
		return "", false
	}
	i := start + 1
	high := src[start]
	for i < len(src) && nameClass[src[i]] != 0 {
		high |= src[i]
		i++
	}
	if high >= utf8.RuneSelf && !utf8.ValidString(src[start:i]) {
		return "", false
	}
	p.pos = i
	return src[start:i], true
}

// splitName splits a tag or attribute name at its colon. A name with a
// colon at either end is all local part; one with two colons is no name.
func splitName(s string) (prefix, local string, ok bool) {
	i := strings.IndexByte(s, ':')
	switch {
	case i < 0:
		return "", s, true
	case strings.IndexByte(s[i+1:], ':') >= 0:
		return "", "", false
	case i == 0 || i == len(s)-1:
		return "", s, true
	}
	return s[:i], s[i+1:], true
}

// scanSymbol scans a tag or attribute name at p.pos and returns its symbol; ok
// is false where name or splitName says no name stands there.
func (p *parser) scanSymbol() (int32, bool) {
	name, ok := p.name()
	if !ok {
		return 0, false
	}
	p.hashed++
	return p.lookup(name)
}

// guessName is scanSymbol tried first with the guess of kind k that symbol
// from-1 holds (none when from is 0). A guess is a name scanSymbol returned
// before, so where takeName finds it, scanSymbol would return it again. On
// a miss scanSymbol's answer becomes the guess.
func (p *parser) guessName(from int32, k int) (int32, bool) {
	if from == 0 {
		return p.scanSymbol()
	}
	if g := p.syms[from-1].guess[k]; g != 0 && p.takeName(p.syms[g-1].name) {
		return g - 1, true
	}
	sym, ok := p.scanSymbol()
	if ok {
		p.syms[from-1].guess[k] = sym + 1
	}
	return sym, ok
}

// takeName moves past name if it stands at p.pos, byte for byte, and a byte
// no name can hold follows it: what name would scan there, provided name
// itself was scanned by name and split once already.
func (p *parser) takeName(name string) bool {
	end := p.pos + len(name)
	if end >= len(p.src) || nameClass[p.src[end]] != 0 || p.src[p.pos:end] != name {
		return false
	}
	p.pos = end
	return true
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *parser) startTag() error {
	src, at := p.src, p.pos
	p.pos++
	sym, ok := p.guessName(p.last, p.after)
	if !ok {
		return p.errorf(at, "expected element name after <")
	}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.skipSpace()
		if p.pos == len(src) {
			return p.eof()
		}
		if src[p.pos] == '>' {
			p.pos++
			break
		}
		if src[p.pos] == '/' {
			if p.pos+1 == len(src) {
				return p.eof()
			}
			if src[p.pos+1] != '>' {
				return p.errorf(p.pos, "expected /> in element")
			}
			p.pos += 2
			empty = true
			break
		}
		if err := p.attribute(sym); err != nil {
			return err
		}
	}
	p.last, p.after = sym+1, guessChild
	if empty {
		p.after = guessSibling
	}

	p.flushText()
	if p.sawRoot && len(p.open) == 0 {
		return p.errorf(at, "multiple root elements")
	}
	nsMark := len(p.ns)
	for _, a := range p.attrs {
		if s := &p.syms[a.sym]; s.prefix() == "xmlns" {
			p.ns = append(p.ns, nsBinding{p.syms[s.local].name, a.value == "xmlns"})
		}
	}
	o := p.push(sym, nsMark)
	local := p.local(sym)
	built := o.keep&KeepAll != 0
	if !built {
		built = local.elem != 0
		o.keep |= local.elem
	}
	depth := int32(len(p.open))
	p.pre++
	if built {
		el := p.newNode(p.label(local))
		el.Kind = Element
		el.ID = NodeID{Pre: p.pre, Depth: depth}
		el.Parent = o.parent
		if depth == 1 {
			p.root = el
		}
		o.el, o.parent = el, el
	}
	p.sawRoot = true
	for _, a := range p.attrs {
		if p.dropAttr(a) {
			continue
		}
		p.pre++
		p.post++
		name := p.local(a.sym)
		if o.keep&KeepAll == 0 && !name.attr {
			continue
		}
		an := p.newNode(p.label(name))
		an.Kind = Attribute
		an.Text = p.keep(a.value)
		an.ID = NodeID{Pre: p.pre, Post: p.post, Depth: depth + 1}
		an.Parent = o.parent
		p.kids = append(p.kids, an)
	}
	if empty {
		p.closeElement()
	}
	return nil
}

// push opens an element of symbol sym on the open stack. The entry is
// written field by field where it lies: one built aside and copied in costs
// the scanner a stalled load on every tag.
func (p *parser) push(sym int32, nsMark int) *openElem {
	keep, parent := p.outer, (*Node)(nil)
	if n := len(p.open); n > 0 {
		keep, parent = p.open[n-1].keep, p.open[n-1].parent
	}
	if len(p.open) == cap(p.open) {
		p.open = append(p.open, openElem{})
	} else {
		p.open = p.open[:len(p.open)+1]
	}
	o := &p.open[len(p.open)-1]
	o.el, o.parent, o.keep, o.sym, o.kids, o.nsMark = nil, parent, keep, sym, len(p.kids), nsMark
	return o
}

// attribute scans name="value" at p.pos into p.attrs, for a start tag of
// symbol elem.
func (p *parser) attribute(elem int32) error {
	src, at := p.src, p.pos
	from, k := elem, guessAttr
	if n := len(p.attrs); n > 0 {
		from, k = p.attrs[n-1].sym, guessNextAttr
	}
	sym, ok := p.guessName(from+1, k)
	if !ok {
		return p.errorf(at, "expected attribute name in element")
	}
	p.skipSpace()
	if p.pos == len(src) {
		return p.eof()
	}
	if src[p.pos] != '=' {
		return p.errorf(p.pos, "attribute name without = in element")
	}
	p.pos++
	p.skipSpace()
	if p.pos == len(src) {
		return p.eof()
	}
	quote := src[p.pos]
	if quote != '"' && quote != '\'' {
		return p.errorf(p.pos, "unquoted or missing attribute value in element")
	}
	p.pos++
	n := strings.IndexByte(src[p.pos:], quote)
	if n < 0 {
		return p.eof()
	}
	value, err := p.chars(src[p.pos:p.pos+n], p.pos, inValue)
	if err != nil {
		return err
	}
	p.pos += n + 1
	p.attrs = append(p.attrs, rawAttr{sym, value})
	return nil
}

// dropAttr reports whether an attribute is a name space declaration, which
// makes no node. The oracle sees names with their prefixes resolved and
// takes the name space "xmlns" for the prefix xmlns, so an attribute whose
// prefix is bound to the URL "xmlns" counts as a declaration too. (It never
// looks the prefix xml up.)
func (p *parser) dropAttr(a rawAttr) bool {
	s := &p.syms[a.sym]
	if s.decl {
		return true
	}
	prefix := s.prefix()
	if prefix == "" || prefix == "xml" {
		return false
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].isXmlns
		}
	}
	return false
}

func (p *parser) endTag() error {
	src, at := p.src, p.pos
	p.pos += 2
	name, ok := p.innermostName()
	if !ok {
		name, ok = p.name()
		if ok {
			_, _, ok = splitName(name)
		}
		if !ok {
			return p.errorf(at, "expected element name after </")
		}
	}
	p.skipSpace()
	if p.pos == len(src) {
		return p.eof()
	}
	if src[p.pos] != '>' {
		return p.errorf(p.pos, "invalid characters between </%s and >", name)
	}
	p.pos++
	if len(p.open) == 0 {
		return p.errorf(at, "unexpected end element </%s>", name)
	}
	sym := p.open[len(p.open)-1].sym
	if o := p.syms[sym].name; o != name {
		return p.errorf(at, "element <%s> closed by </%s>", o, name)
	}
	p.last, p.after = sym+1, guessSibling
	p.flushText()
	p.closeElement()
	return nil
}

// innermostName takes the innermost open element's name if it stands at
// p.pos (takeName; the name is a start tag's, so name scanned it). Anything
// else is left to name, so that every error reads as before.
func (p *parser) innermostName() (string, bool) {
	if len(p.open) == 0 {
		return "", false
	}
	name := p.syms[p.open[len(p.open)-1].sym].name
	return name, p.takeName(name)
}

// closeElement pops the innermost open element: its children become its
// Children slice and it becomes a finished child of its parent.
func (p *parser) closeElement() {
	o := &p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	p.ns = p.ns[:o.nsMark]
	p.post++
	if o.el == nil {
		// What was built inside a dropped element stays in kids, for the
		// next built element around it.
		return
	}
	if kids := p.kids[o.kids:]; len(kids) > 0 {
		if len(kids) > cap(p.kidSlab)-len(p.kidSlab) {
			p.mem.kids.settle(p.kidSlab)
			p.kidSlab = p.mem.kids.take(len(kids), p.chunkSize(len(p.kids), len(p.labelOf)))
		}
		at := len(p.kidSlab)
		p.kidSlab = append(p.kidSlab, kids...)
		o.el.Children = p.kidSlab[at:len(p.kidSlab):len(p.kidSlab)]
	}
	p.kids = append(p.kids[:o.kids], o.el)
	o.el.ID.Post = p.post
}

// procInst skips <?target ...?>. An XML declaration, wherever it stands,
// must say version 1.0 and encoding UTF-8 if it says either.
func (p *parser) procInst() error {
	src, at := p.src, p.pos
	p.pos += 2
	target, ok := p.name()
	if !ok {
		return p.errorf(at, "expected target name after <?")
	}
	p.skipSpace()
	n := strings.Index(src[p.pos:], "?>")
	if n < 0 {
		return p.eof()
	}
	content := src[p.pos : p.pos+n]
	p.pos += n + 2
	if target == "xml" {
		if v := pseudoAttr(content, "version"); v != "" && v != "1.0" {
			return p.errorf(at, "unsupported version %q; only version 1.0 is supported", v)
		}
		if e := pseudoAttr(content, "encoding"); e != "" && !strings.EqualFold(e, "utf-8") {
			return p.errorf(at, "encoding %q declared but only UTF-8 is supported", e)
		}
	}
	return nil
}

// pseudoAttr returns the value of name="..." or name='...' in the content
// of an XML declaration, or "". Like encoding/xml it takes the first
// name= that a quote follows, wherever in the content it stands.
func pseudoAttr(s, name string) string {
	name += "="
	for {
		i := strings.Index(s, name)
		if i < 0 || i+len(name) == len(s) {
			return ""
		}
		quote := s[i+len(name)]
		s = s[i+len(name)+1:]
		if quote == '"' || quote == '\'' {
			if j := strings.IndexByte(s, quote); j >= 0 {
				return s[:j]
			}
			return ""
		}
	}
}

// bang handles the three constructs that start with "<!".
func (p *parser) bang() error {
	src, at := p.src, p.pos
	rest := src[at+2:]
	switch {
	case strings.HasPrefix(rest, "--"):
		// The first "--" of a comment must be the one that ends it.
		n := strings.Index(rest[2:], "--")
		if n < 0 || 2+n+2 == len(rest) {
			return p.eof()
		}
		if rest[2+n+2] != '>' {
			return p.errorf(at+2+2+n, `invalid sequence "--" not allowed in comments`)
		}
		p.pos = at + 2 + 2 + n + 3
		return nil
	case strings.HasPrefix(rest, "-"):
		return p.errorf(at, "invalid sequence <!- not part of <!--")
	case strings.HasPrefix(rest, "["):
		const open = "[CDATA["
		if !strings.HasPrefix(rest, open) {
			return p.errorf(at, "invalid <![ sequence")
		}
		n := strings.Index(rest[len(open):], "]]>")
		if n < 0 {
			return p.errorf(len(src), "unexpected EOF in CDATA section")
		}
		at += 2 + len(open)
		text, err := p.chars(src[at:at+n], at, inCDATA)
		if err != nil {
			return err
		}
		p.addText(text)
		p.pos = at + n + 3
		return nil
	}
	return p.directive()
}

// directive skips <!DOCTYPE ...> and its like: to the first > that is
// outside quotes and outside nested <...> and <!-- --> of an internal
// subset. The byte after "<!" is taken as it is, whatever it is.
func (p *parser) directive() error {
	src := p.src
	i := p.pos + 3
	var quote byte
	depth := 0
	for i < len(src) {
		c := src[i]
		i++
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			if depth == 0 {
				p.pos = i
				return nil
			}
			depth--
		case c == '<':
			if strings.HasPrefix(src[i:], "!--") {
				n := strings.Index(src[i+3:], "-->")
				if n < 0 {
					return p.eof()
				}
				i += 3 + n + 3
			} else {
				depth++
			}
		}
	}
	return p.eof()
}

// newNode hands out the next node of the slab, labelled with entry label of
// the label table.
func (p *parser) newNode(label int32) *Node {
	if len(p.slab) == cap(p.slab) {
		p.mem.nodes.settle(p.slab)
		p.slab = p.mem.nodes.take(1, p.chunkSize(0, len(p.labelOf)+1))
	}
	p.slab = p.slab[:len(p.slab)+1]
	n := &p.slab[len(p.slab)-1]
	e := &p.labelTab[label]
	e.nodes++
	n.Label = e.label
	p.labelOf = append(p.labelOf, label)
	return n
}

// chunkSize sizes the next chunk of either slab: room for the need nodes at
// hand and for the nodes the unread input holds, which it estimates by the
// tags left. An element that holds text is two tags and two nodes, an
// attribute or a second text is one node more, and an element that holds
// elements one less. Under a projection only a share of those nodes is
// built, which is taken to be the share built so far (built nodes, the one
// at hand included, of the p.pre counted), as if priorDropped dropped nodes
// had come before the document: one node built early must not claim room
// for the whole input. Where the guess falls short the slab grows by another
// chunk, of at least a quarter of the nodes made so far: the chunks of a
// document are few however many nodes a tag yields, and sizing one costs
// the same wherever in the input the scan stands.
func (p *parser) chunkSize(need, built int) int {
	left := p.tagsLeft
	if p.proj != nil {
		left = int(int64(left) * int64(built) / (int64(p.pre) + priorDropped))
	}
	return max(need+left+4, built/4)
}

const priorDropped = 16

// label returns the label table's entry for the local name l, making one the
// first time a node of the document carries it. The label is the symbol
// table's copy of the name, so a Label that outlives the document does not
// keep the document's text alive.
func (p *parser) label(l *symbol) int32 {
	if l.label == 0 {
		l.label = int32(len(p.labelTab))
		p.labelTab = append(p.labelTab, labelEntry{label: l.name})
	}
	return l.label
}

// keep returns s as a built node may keep it. A sub-slice of the input is
// copied into the text slab; a string the scanner built (references
// decoded, pieces joined) is kept as it is.
func (p *parser) keep(s string) string {
	if s == "" {
		return ""
	}
	off := uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(unsafe.StringData(p.src)))
	if off >= uintptr(len(p.src)) {
		return s
	}
	if len(s) > cap(p.text)-len(p.text) {
		// What a full parse copies later lies after s, so one chunk holds
		// all of it.
		want := len(p.src) - int(off)
		if p.proj != nil {
			p.textNext = min(max(2*p.textNext, minTextChunk), maxTextChunk)
			want = max(p.textNext, len(s))
		}
		p.mem.text.settle(p.text)
		p.text = p.mem.text.take(len(s), want)
	}
	at := len(p.text)
	p.text = append(p.text, s...)
	return unsafe.String(&p.text[at], len(s))
}

// The chunks a projected parse adds to its text slab double from
// minTextChunk to maxTextChunk bytes, so that a parse that keeps little text
// takes little; a longer text gets a chunk of its own size.
const (
	minTextChunk = 256
	maxTextChunk = 8 << 10
)

// indexes builds the document's two node indexes in one allocation of the
// arena: the nodes in pre order, which is slab order, and after them the
// nodes of each label in the order of the label table. labels maps each
// label to its entry.
func (p *parser) indexes() (nodes []*Node, byLabel [][]*Node, labels map[string]int32) {
	a, n := p.mem, len(p.labelOf)
	if cap(a.index) < 2*n {
		a.index = make([]*Node, 2*n)
	}
	if cap(a.byLabel) < len(p.labelTab) {
		a.byLabel = make([][]*Node, len(p.labelTab))
	}
	if a.labels == nil {
		a.labels = make(map[string]int32, len(p.labelTab))
	}
	a.index, a.byLabel = a.index[:2*n], a.byLabel[:len(p.labelTab)]
	all, byLabel, labels := a.index, a.byLabel, a.labels
	nodes, all = all[:n:n], all[n:]
	for i, e := range p.labelTab {
		byLabel[i], all = all[:0:e.nodes], all[e.nodes:]
		if i > 0 || e.nodes > 0 {
			labels[e.label] = int32(i)
		}
	}
	i := 0
	for _, c := range a.nodes.list[:a.nodes.used] {
		for j := range c {
			nodes[i] = &c[j]
			l := p.labelOf[i]
			byLabel[l] = append(byLabel[l], &c[j])
			i++
		}
	}
	return nodes, byLabel, labels
}
