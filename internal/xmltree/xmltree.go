// Package xmltree parses XML documents into in-memory trees whose nodes
// carry the (pre, post, depth) structural identifiers the paper's indexes
// and structural joins are built on (Section 5, after [3]).
//
// Identifier assignment follows Figure 3 of the paper exactly:
//
//   - element, attribute and text nodes are all numbered;
//   - pre is the preorder rank (1-based), assigned to an element before its
//     attributes, which precede its element/text children in document order;
//   - post is the postorder rank; attributes and text blobs are leaves;
//   - depth starts at 1 for the root; attributes sit one level below their
//     owner element;
//   - a run of character data forms a single text node (the words of the
//     text all share that node's identifier);
//   - whitespace-only character data between elements is ignored.
//
// With these identifiers, n1 is an ancestor of n2 iff n1.pre < n2.pre and
// n1.post > n2.post (the paper's Section 5 states "n1.post < n2.post",
// which contradicts its own Figure 3 numbers; we follow the figure), and n1
// is the parent of n2 iff additionally n1.depth+1 == n2.depth.
//
// # The scanner and its contract
//
// Parse (scan.go) is one pass over the document held as one string. It
// finds markup with strings.IndexByte, takes names, text and attribute
// values as sub-slices of that string, and builds a new string only for a
// run that holds a reference, a \r, or several pieces (text around a
// comment, a CDATA section). Labels are the exception: each distinct label
// is copied once into a per-document table, so a Label kept after the
// Document is dropped does not keep the document's text alive, and the
// table is the NodesByLabel index. Nodes come out of one slab sized from
// the input, and all Children slices out of another.
//
// What Parse accepts is defined by the encoding/xml tokenizer it replaced
// (Decoder.Token in strict mode, no Entity map, no CharsetReader), which
// the tests keep as an oracle: for every input the oracle accepts, Parse
// accepts and yields the same nodes, in the same order, with the same Kind,
// Label, Text, ID and Content; for every input the oracle rejects, Parse
// rejects. That includes the oracle's own departures from XML 1.0: only
// the five predefined entities exist, attribute values keep their tabs and
// newlines, a DOCTYPE is skipped unread, an XML declaration is checked
// wherever it stands, an attribute whose prefix is bound to the URL "xmlns"
// is taken for a name space declaration. The leniencies, inputs the oracle
// rejects and Parse accepts, are these and no others:
//
//   - Non-ASCII characters in element, attribute and processing-instruction
//     names are not checked against the Unicode name tables: any valid
//     UTF-8 sequence is a name character. ASCII characters are checked.
//
// Error messages are the scanner's own and carry a line number.
//
// ParseProjected is the same scan with a gate in front of node construction,
// for the query path, where a query names a handful of labels and reads a
// tenth of a document's nodes. Under a Projection the scanner
//
//   - runs every check on every byte as Parse does: it accepts and rejects
//     the same inputs with the same error text, whatever the projection;
//   - counts every node into pre, post and depth, built or not, so a built
//     node has the ID it has in the full tree (the index stores those IDs,
//     and the evaluator takes the child axis from the depths);
//   - builds a node only if the projection names it: an element by its
//     label, an attribute by its name, a text node by an enclosing element
//     flagged KeepText, any node by an enclosing element flagged KeepAll;
//     a dropped element is not even interned in the label table;
//   - links a built node to its nearest built ancestor (Parent) and its
//     nearest built descendants in document order (Children): what is built
//     inside a dropped element becomes a child of the next built element
//     around it. So Value of a KeepText element concatenates the same text
//     nodes in the same order, and Content of a KeepAll element serializes
//     the same subtree, as on the full tree;
//   - sizes its slabs by the share of nodes built so far, not by the tags
//     left alone.
//
// Nodes, NodeByPre and NodesByLabel of a projected Document see the built
// nodes only; Root is nil if the root element is not among them. The tests
// hold every projected document node for node to the full one.
package xmltree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// NodeKind distinguishes the three node flavours the index sees.
type NodeKind uint8

const (
	// Element is an XML element node.
	Element NodeKind = iota
	// Attribute is an XML attribute node.
	Attribute
	// Text is a run of character data.
	Text
)

func (k NodeKind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// NodeID is a (pre, post, depth) structural identifier.
type NodeID struct {
	Pre   int32
	Post  int32
	Depth int32
}

// String renders the identifier as the paper prints it, e.g. "(3, 3, 2)".
func (id NodeID) String() string {
	return fmt.Sprintf("(%d, %d, %d)", id.Pre, id.Post, id.Depth)
}

// IsAncestorOf reports whether the node identified by id is a strict
// ancestor of the node identified by other (within the same document).
func (id NodeID) IsAncestorOf(other NodeID) bool {
	return id.Pre < other.Pre && id.Post > other.Post
}

// IsParentOf reports whether id identifies the parent of other.
func (id NodeID) IsParentOf(other NodeID) bool {
	return id.IsAncestorOf(other) && id.Depth+1 == other.Depth
}

// Less orders identifiers by pre rank (document order).
func (id NodeID) Less(other NodeID) bool { return id.Pre < other.Pre }

// Node is one tree node.
type Node struct {
	// Label is the element or attribute name; empty for text nodes. It is
	// the document's own copy of the name and shares no memory with Text.
	Label string
	// Text is the character data of a Text node or the value of an
	// Attribute node; empty for elements. It usually is a sub-slice of the
	// document's text, so a Text kept past the Document keeps that text.
	Text string
	ID   NodeID
	Kind NodeKind

	Parent *Node
	// Children lists attribute nodes first, then element and text
	// children in document order.
	Children []*Node
}

// Document is a parsed XML document: all of its nodes from Parse, the ones a
// projection names from ParseProjected.
type Document struct {
	// URI identifies the document in the warehouse (URI(d) in the paper).
	URI string
	// Root is the root element; nil in a projected document whose root
	// element was not built.
	Root *Node
	// SourceBytes is the size of the serialized input, the s(D)
	// contribution of this document.
	SourceBytes int64

	scanned int     // nodes the input holds, built or not
	nodes   []*Node // the built nodes in pre order
	// labels is the table Parse interned the labels in, and byLabel the
	// nodes of each of its entries in document order. Text nodes are under
	// "".
	labels  map[string]int32
	byLabel [][]*Node
}

// Parse errors.
var (
	ErrEmptyDocument = errors.New("xmltree: document has no root element")
)

// NodeCount returns the number of nodes built (elements, attributes, texts).
func (d *Document) NodeCount() int { return len(d.nodes) }

// NodesScanned returns the number of nodes the input holds: NodeCount for a
// full parse, and what the scan counted, built or not, for a projected one.
func (d *Document) NodesScanned() int { return d.scanned }

// Nodes returns all built nodes in document (pre) order. The slice is
// shared; callers must not modify it.
func (d *Document) Nodes() []*Node { return d.nodes }

// NodeByPre returns the built node with the given pre rank (1-based), or
// nil.
func (d *Document) NodeByPre(pre int32) *Node {
	i := sort.Search(len(d.nodes), func(i int) bool { return d.nodes[i].ID.Pre >= pre })
	if i == len(d.nodes) || d.nodes[i].ID.Pre != pre {
		return nil
	}
	return d.nodes[i]
}

// NodesByLabel returns the element or attribute nodes carrying the given
// label, in document order. Text nodes, having no label, are returned for
// label "". A parsed document is immutable, so concurrent calls are safe
// (the query pipeline evaluates one document on several workers). Callers
// must not modify the result.
func (d *Document) NodesByLabel(label string) []*Node {
	if i, ok := d.labels[label]; ok {
		return d.byLabel[i]
	}
	return nil
}

// Value returns the string value of a node as defined in Section 4 of the
// paper: for an element, the concatenation of all its text descendants in
// document order; for an attribute or text node, its own text.
func (n *Node) Value() string {
	switch n.Kind {
	case Attribute, Text:
		return n.Text
	}
	// <name>text</name>: one text node after the attributes is the value.
	kids := n.Children
	for len(kids) > 0 && kids[0].Kind == Attribute {
		kids = kids[1:]
	}
	if len(kids) == 1 && kids[0].Kind == Text {
		return kids[0].Text
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		if c.Kind == Attribute {
			continue
		}
		c.appendText(b)
	}
}

// Content serializes the full XML subtree rooted at n, the granularity
// returned for a `cont` annotation.
func (n *Node) Content() string {
	var b strings.Builder
	n.writeXML(&b)
	return b.String()
}

func (n *Node) writeXML(b *strings.Builder) {
	switch n.Kind {
	case Text:
		escapeText(b, n.Text)
	case Attribute:
		b.WriteString(n.Label)
		b.WriteString(`="`)
		escapeText(b, n.Text)
		b.WriteString(`"`)
	case Element:
		b.WriteString("<")
		b.WriteString(n.Label)
		// Two walks over the children, attributes then the rest, instead of
		// a list of the rest.
		rest := false
		for _, c := range n.Children {
			if c.Kind == Attribute {
				b.WriteString(" ")
				c.writeXML(b)
			} else {
				rest = true
			}
		}
		if !rest {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, c := range n.Children {
			if c.Kind != Attribute {
				c.writeXML(b)
			}
		}
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">")
	}
}

// escapeText writes s the way encoding/xml's EscapeText does, byte for byte:
// the five markup characters, tab, newline and carriage return as references,
// and U+FFFD for invalid UTF-8 and for characters outside XML's Char. It
// copies the runs between them straight from s.
func escapeText(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		width := 1
		switch c := s[i]; {
		case c == '"':
			esc = "&#34;"
		case c == '\'':
			esc = "&#39;"
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '\t':
			esc = "&#x9;"
		case c == '\n':
			esc = "&#xA;"
		case c == '\r':
			esc = "&#xD;"
		case c < 0x20:
			esc = "\uFFFD"
		case c < utf8.RuneSelf:
			i++
			continue
		default:
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if !(r == utf8.RuneError && width == 1) && r != 0xFFFE && r != 0xFFFF {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		i += width
		last = i
	}
	b.WriteString(s[last:])
}

// Path returns the nodes on the label path from the document root down to n,
// inclusive (the inPath(n) of Section 5). Text nodes contribute themselves
// as the last step.
func (n *Node) Path() []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextWord returns the first word of s that starts at or after byte offset
// i, and the offset just past it; the word is "" once none is left. A word
// is a maximal run of letters and digits, the unit full-text (w‖word) index
// keys are created under. Matching is case-sensitive, as in the paper's
// examples (wOlympia, w1854). The word is a sub-slice of s, so a loop
//
//	for w, i := NextWord(s, 0); w != ""; w, i = NextWord(s, i) { ... }
//
// visits the words of s without allocating.
func NextWord(s string, i int) (word string, next int) {
	for i < len(s) && !wordByte[s[i]] {
		i++
	}
	start := i
	for i < len(s) && wordByte[s[i]] {
		i++
	}
	return s[start:i], i
}

// Words returns the words of s, in order.
func Words(s string) []string {
	var words []string
	for w, i := NextWord(s, 0); w != ""; w, i = NextWord(s, i) {
		words = append(words, w)
	}
	return words
}

// ContainsWord reports whether the word w occurs in the value s, the
// semantics of the contains(c) predicate.
func ContainsWord(s, w string) bool {
	for got, i := NextWord(s, 0); got != ""; got, i = NextWord(s, i) {
		if got == w {
			return true
		}
	}
	return false
}

// wordByte tells whether a byte belongs to a word. Every byte of a
// non-ASCII character does (and so does a byte that is not valid UTF-8,
// which a range over the string would read as U+FFFD), so words can be cut
// byte by byte without decoding.
var wordByte = func() (t [256]bool) {
	for b := range t {
		t[b] = isWordRune(rune(b))
	}
	return t
}()

func isWordRune(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return true
	case r == '-', r == '_':
		// Keep identifiers like "1863-1" (Figure 3's aid 1863-1) whole.
		return true
	}
	return r > 127 // non-ASCII letters kept whole
}
