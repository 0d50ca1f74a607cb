package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/xmark"
)

// dump renders everything the contract compares: the node sequence with
// kind, label, text and identifier, each node's parent and children (by pre
// rank), and the serialized root.
func dump(d *Document) string {
	var b strings.Builder
	for _, n := range d.Nodes() {
		parent := int32(0)
		if n.Parent != nil {
			parent = n.Parent.ID.Pre
		}
		fmt.Fprintf(&b, "%s %q %q %v parent=%d children=[", n.Kind, n.Label, n.Text, n.ID, parent)
		for _, c := range n.Children {
			fmt.Fprintf(&b, " %d", c.ID.Pre)
		}
		b.WriteString(" ]\n")
	}
	b.WriteString(d.Root.Content())
	return b.String()
}

// lenient reports whether a document the oracle rejected with err is one the
// package doc lets the scanner accept: the only such case is a name with a
// non-ASCII character outside the Unicode name tables.
func lenient(err error) bool {
	var se *xml.SyntaxError
	const prefix = "invalid XML name: "
	if !errors.As(err, &se) || !strings.HasPrefix(se.Msg, prefix) {
		return false
	}
	name := se.Msg[len(prefix):]
	if !utf8.ValidString(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			return true
		}
	}
	return false
}

// checkAgainstReference holds Parse to the oracle on one input and returns
// the scanner's outcome.
func checkAgainstReference(t testing.TB, data []byte) (*Document, error) {
	t.Helper()
	want, wantErr := parseReference("d.xml", data)
	got, gotErr := Parse("d.xml", data)
	switch {
	case wantErr != nil && gotErr == nil:
		if !lenient(wantErr) {
			t.Fatalf("scanner accepts what the oracle rejects (%v):\n%q", wantErr, data)
		}
	case wantErr == nil && gotErr != nil:
		t.Fatalf("scanner rejects what the oracle accepts (%v):\n%q", gotErr, data)
	case wantErr == nil:
		if g, w := dump(got), dump(want); g != w {
			t.Fatalf("trees differ on %q\n--- scanner\n%s\n--- oracle\n%s", data, g, w)
		}
		if errors.Is(gotErr, ErrEmptyDocument) != errors.Is(wantErr, ErrEmptyDocument) {
			t.Fatalf("ErrEmptyDocument: scanner %v, oracle %v", gotErr, wantErr)
		}
		if g, w := got.Root.Content(), contentReference(got.Root); g != w {
			t.Fatalf("Content differs from the reference serializer on %q\n--- Content\n%s\n--- reference\n%s", data, g, w)
		}
		checkIndexes(t, got, data)
	}
	return got, gotErr
}

// checkIndexes checks what the oracle does not build: the pre-rank index,
// the label index and SourceBytes.
func checkIndexes(t testing.TB, d *Document, data []byte) {
	t.Helper()
	if d.SourceBytes != int64(len(data)) || d.URI != "d.xml" {
		t.Fatalf("SourceBytes %d URI %q", d.SourceBytes, d.URI)
	}
	byLabel := map[string][]*Node{}
	for i, n := range d.Nodes() {
		if n.ID.Pre != int32(i+1) || d.NodeByPre(n.ID.Pre) != n {
			t.Fatalf("node %d has pre %d", i, n.ID.Pre)
		}
		byLabel[n.Label] = append(byLabel[n.Label], n)
	}
	if len(byLabel) != len(d.labels) {
		t.Fatalf("label index has %d labels, the nodes %d", len(d.labels), len(byLabel))
	}
	for label, want := range byLabel {
		got := d.NodesByLabel(label)
		if len(got) != len(want) {
			t.Fatalf("NodesByLabel(%q): %d nodes, want %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("NodesByLabel(%q)[%d] = %v, want %v", label, i, got[i].ID, want[i].ID)
			}
		}
	}
	if d.NodesByLabel("no such label") != nil {
		t.Fatal("NodesByLabel of an unknown label is not nil")
	}
}

// TestParseMatchesReference runs the contract over the generated corpora:
// every XMark kind and class at three document sizes, and the paintings.
func TestParseMatchesReference(t *testing.T) {
	seen := map[string]bool{}
	for _, size := range []struct{ docs, target int }{{400, 4 << 10}, {120, 16 << 10}, {40, 64 << 10}} {
		cfg := xmark.DefaultConfig(size.docs)
		cfg.TargetDocBytes = size.target
		for i := 0; i < cfg.Docs; i++ {
			gd := xmark.GenerateDoc(cfg, i)
			seen[gd.Kind.String()+"/"+gd.Class.String()] = true
			if _, err := checkAgainstReference(t, gd.Data); err != nil {
				t.Fatalf("%s: %v", gd.URI, err)
			}
		}
	}
	if len(seen) != 15 {
		t.Fatalf("corpus covers %d kind/class pairs, want 15: %v", len(seen), seen)
	}
	for _, gd := range xmark.Paintings() {
		if _, err := checkAgainstReference(t, gd.Data); err != nil {
			t.Fatalf("%s: %v", gd.URI, err)
		}
	}
}

// edgeInputs is the table of inputs at the edges of the contract. Every one
// is checked against the oracle; want pins the outcome so that a change of
// the oracle itself (a new Go release) shows up too: reject, or the text
// and attribute nodes of the accepted document as label=value pairs.
const reject = "rejected"

var edgeInputs = []struct {
	name, src, want string
}{
	{"cdata joins text", `<a>x<![CDATA[<y>&amp;]]>z</a>`, `="x<y>&amp;z"`},
	{"cdata joins text across a comment and a PI", "<a>x<!-- c --><![CDATA[y]]><?pi d?>z</a>", `="xyz"`},
	{"empty cdata", `<a><![CDATA[]]></a>`, ``},
	{"cdata end in text", `<a>x]]>y</a>`, reject},
	{"cdata end split by a comment", `<a>x]]<!---->>y</a>`, `="x]]>y"`},
	{"cdata end from references", `<a>]]&gt;&#93;&#93;></a>`, `="]]>]]>"`},
	{"cdata end in attribute value", `<a b="]]>"/>`, `b="]]>"`},
	{"unterminated cdata", `<a><![CDATA[x]]</a>`, reject},
	{"not cdata", `<a><![CDATB[x]]></a>`, reject},
	{"decimal reference", `<a>&#65;&#0066;</a>`, `="AB"`},
	{"hex reference", `<a>&#x41;&#x00e9;&#x1F600;</a>`, `="Aé😀"`},
	{"upper-case X is no hex reference", `<a>&#X41;</a>`, reject},
	{"reference to NUL", `<a>&#0;</a>`, reject},
	{"reference to a control character", `<a>&#x1f;</a>`, reject},
	{"reference to a surrogate", `<a>&#xD800;</a>`, "=\"�\""},
	{"reference to U+FFFE", `<a>&#xFFFE;</a>`, reject},
	{"reference beyond Unicode", `<a>&#x110000;</a>`, reject},
	{"reference overflowing 64 bits", `<a>&#99999999999999999999999;</a>`, reject},
	{"empty reference", `<a>&#;</a>`, reject},
	{"reference without semicolon", `<a>&#65</a>`, reject},
	{"predefined entities", `<a b="&quot;&apos;">&lt;&gt;&amp;</a>`, `b="\"'" ="<>&"`},
	{"unknown entity", `<a>&nbsp;</a>`, reject},
	{"entity without semicolon", `<a>&amp</a>`, reject},
	{"bare ampersand", `<a>x & y</a>`, reject},
	{"ampersand at EOF", `<a/>&`, reject},
	{"lone CR in text", "<a>x\ry</a>", `="x\ny"`},
	{"CRLF in text", "<a>x\r\ny\r\n</a>", `="x\ny\n"`},
	{"CR then LF across a comment", "<a>x\r<!---->\ny</a>", `="x\n\ny"`},
	{"CR reference is kept", "<a>x&#13;\ny</a>", `="x\r\ny"`},
	{"CR then LF reference", "<a>x\r&#10;y</a>", `="x\n\ny"`},
	{"CR in attribute value", "<a b=\"x\ry\r\nz\"/>", `b="x\ny\nz"`},
	{"CR in cdata", "<a><![CDATA[x\r\ny\r]]></a>", `="x\ny\n"`},
	{"tab and newline in attribute value", "<a b=\"x\ty\nz\"/>", `b="x\ty\nz"`},
	{"less-than in attribute value", `<a b="x<y"/>`, reject},
	{"greater-than in attribute value", `<a b="x>y"/>`, `b="x>y"`},
	{"single-quoted attribute", `<a b='x"y'/>`, `b="x\"y"`},
	{"attributes without space between", `<a b="1"c='2'/>`, `b="1" c="2"`},
	{"spaces around =", "<a b = \"1\"\n/>", `b="1"`},
	{"empty attribute value", `<a b=""/>`, `b=""`},
	{"attribute without value", `<a b/>`, reject},
	{"attribute without quotes", `<a b=1/>`, reject},
	{"unterminated attribute value", `<a b="1/>`, reject},
	{"duplicate attribute", `<a b="1" b="2"/>`, `b="1" b="2"`},
	{"prefixed close tag mismatch", `<p:a xmlns:p="u" xmlns:q="u"></q:a>`, reject},
	{"unprefixed close of prefixed tag", `<p:a></a>`, reject},
	{"prefixed tags", `<p:a><q:b p:c="1"/></p:a>`, `c="1"`},
	{"close tag with trailing space", "<a></a \n>", ``},
	{"close tag with junk", `<a></a b>`, reject},
	{"close without open", `</a>`, reject},
	{"close after root", `<a/></a>`, reject},
	{"xmlns attributes are skipped", `<a xmlns="u" xmlns:p="v" p:b="1" c="2"/>`, `b="1" c="2"`},
	{"attribute with local name xmlns", `<a p:xmlns="1" b="2"/>`, `b="2"`},
	{"prefix bound to the URL xmlns", `<a p:b="1" xmlns:p="xmlns"><c p:d="2"><e xmlns:p="u" p:f="3"/><g p:h="4"/></c></a>`, `f="3"`},
	{"prefix xml is never bound", `<a xmlns:xml="xmlns" xml:lang="en"/>`, `lang="en"`},
	{"colon at the ends of a name", `<a: :b="1" xmlns:="2"></a:>`, `:b="1" xmlns:="2"`},
	{"two colons in a name", `<a:b:c/>`, reject},
	{"a name of two colons", `<::/>`, reject},
	{"a name of one colon", `<: :=""/>`, `:=""`},
	{"name starting with a digit", `<1a/>`, reject},
	{"name starting with a dash", `<a -b="1"/>`, reject},
	{"name with dot, dash, digit", `<a.b-1 c_d.2-="1"/>`, `c_d.2-="1"`},
	{"non-ASCII name", `<é ü="1">x</é>`, `ü="1" ="x"`},
	{"invalid UTF-8 in name", "<a\xff/>", reject},
	{"space after <", `< a/>`, reject},
	{"latin1 declaration", `<?xml version="1.0" encoding="latin1"?><a/>`, reject},
	{"utf-8 declaration in any case", `<?xml version='1.0' encoding='Utf-8'?><a/>`, ``},
	{"version 1.1", `<?xml version="1.1"?><a/>`, reject},
	{"declaration after the root", `<a/><?xml encoding="latin1"?>`, reject},
	{"declaration with unquoted version first", `<?xml version=1.1 version="1.0"?><a/>`, ``},
	{"PI target in upper case is no declaration", `<?XML encoding="latin1"?><a/>`, ``},
	{"PI without target", `<? x?><a/>`, reject},
	{"unterminated PI", `<a/><?pi x>`, reject},
	{"PI holding markup", `<?pi <a> ]]> & ?><a/>`, ``},
	{"doctype", `<!DOCTYPE a SYSTEM "a.dtd"><a/>`, ``},
	{"doctype with internal subset", `<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ENTITY e ">]"><!-- > ' -->]><a>x</a>`, `="x"`},
	{"doctype with unbalanced quote", `<!DOCTYPE a "><a/>`, reject},
	{"doctype with unbalanced bracket", `<!DOCTYPE a [<!ELEMENT a><a/>`, reject},
	{"directive whose first byte is taken as is", `<!>x><a/>`, ``},
	{"directive whose first byte is a quote", `<!"><a/>`, ``},
	{"comment", `<a><!-- x - y -> z --></a>`, ``},
	{"double dash in comment", `<a><!-- x -- y --></a>`, reject},
	{"comment ending in three dashes", `<a><!-- x ---></a>`, reject},
	{"shortest comment", `<!----><a/>`, ``},
	{"short unterminated comments", `<!--><a/>-->`, reject},
	{"unterminated comment", `<a/><!-- x`, reject},
	{"half a comment opener", `<!-x--><a/>`, reject},
	{"comment holding markup and bad bytes", "<!-- <a> & \x00 \xff --><a/>", ``},
	{"invalid UTF-8 in text", "<a>\xc3(</a>", reject},
	{"invalid UTF-8 in attribute value", "<a b=\"\xff\"/>", reject},
	{"invalid UTF-8 in cdata", "<a><![CDATA[\xc3]]></a>", reject},
	{"invalid UTF-8 outside the root", "<a/>\xff", reject},
	{"encoded surrogate", "<a>\xed\xa0\x80</a>", reject},
	{"overlong encoding", "<a>\xc0\xaf</a>", reject},
	{"control character", "<a>\x01</a>", reject},
	{"form feed", "<a>\x0c</a>", reject},
	{"DEL is allowed", "<a>\x7f</a>", `="\x7f"`},
	{"U+FFFE", "<a>\xef\xbf\xbe</a>", reject},
	{"U+FFFF in attribute value", "<a b=\"\xef\xbf\xbf\"/>", reject},
	{"U+FFFD and its neighbours", "<a>\xef\xbf\xbd\xef\xbe\xbf</a>", `="�\uffbf"`},
	{"multi-byte text", `<a>日本語 ünï 😀</a>`, `="日本語 ünï 😀"`},
	{"byte order mark", "\xef\xbb\xbf<a/>", ``},
	{"Unicode white space alone is no text", "<a>\u00a0\u2003\u0085<b/>\u3000 \n</a>", ``},
	{"white space is kept beside text", "<a> \n x\u00a0</a>", `=" \n x\u00a0"`},
	{"EOF inside a start tag", `<a b="1"`, reject},
	{"EOF inside a name", `<a`, reject},
	{"EOF after <", `<a/><`, reject},
	{"EOF after </", `<a></`, reject},
	{"EOF inside a close tag", `<a></a`, reject},
	{"EOF after /", `<a /`, reject},
	{"EOF with open elements", `<a><b></b>`, reject},
	{"EOF in text with open elements", `<a>x`, reject},
	{"text outside the root", "x &lt; <a>y</a> z\n", `="y"`},
	{"bad reference outside the root", `<a/>&bad;`, reject},
	{"cdata end outside the root", `<a/>]]>`, reject},
	{"two roots", `<a/><b/>`, reject},
	{"two roots with text between", `<a/>x<b/>`, reject},
	{"no root", " <!-- x --> \n", reject},
	{"empty input", ``, reject},
	{"slash inside a tag", `<a / >`, reject},
	{"self-closing with attributes", `<a><b c="1"/><b/>x</a>`, `c="1" ="x"`},
	{"mixed content", `<p>alpha<b>beta</b>gamma<b/>delta</p>`, `="alpha" ="beta" ="gamma" ="delta"`},
}

// leafDump lists a document's attribute and text nodes as label=value.
func leafDump(d *Document) string {
	var parts []string
	for _, n := range d.Nodes() {
		if n.Kind != Element {
			parts = append(parts, fmt.Sprintf("%s=%q", n.Label, n.Text))
		}
	}
	return strings.Join(parts, " ")
}

func TestEdgeInputsMatchReference(t *testing.T) {
	for _, tc := range edgeInputs {
		t.Run(tc.name, func(t *testing.T) {
			d, err := checkAgainstReference(t, []byte(tc.src))
			if _, refErr := parseReference("d.xml", []byte(tc.src)); refErr != nil && err == nil {
				t.Fatalf("a leniency belongs in TestLeniencies, not here: %v", refErr)
			}
			got := reject
			if err == nil {
				got = leafDump(d)
			}
			if got != tc.want {
				t.Fatalf("got %s (%v), want %s", got, err, tc.want)
			}
		})
	}
}

// leniencies are the inputs the oracle rejects and the scanner accepts; the
// package doc lists them and lenient recognises them.
var leniencies = []struct {
	name, src, want string
}{
	{"symbol in an element name", `<a×b>x</a×b>`, `="x"`},
	{"symbol in an attribute name", `<a ×="1"/>`, `×="1"`},
	{"symbol starting a PI target", `<?→ x?><a/>`, ``},
	{"combining mark starting a name", "<\u0301a/>", ``},
}

func TestLeniencies(t *testing.T) {
	for _, tc := range leniencies {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseReference("d.xml", []byte(tc.src)); err == nil || !lenient(err) {
				t.Fatalf("the oracle's verdict is %v, want a rejected name", err)
			}
			d, err := checkAgainstReference(t, []byte(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			if got := leafDump(d); got != tc.want {
				t.Fatalf("got %s, want %s", got, tc.want)
			}
		})
	}
}

// TestTokenSoupMatchesReference strings random markup fragments together,
// well-formed or not, which reaches states a byte-level fuzzer takes long to
// find: references next to CR, CDATA next to comments, declarations in odd
// places, name space declarations after the attributes they govern.
func TestTokenSoupMatchesReference(t *testing.T) {
	n := 60000
	if testing.Short() {
		n = 5000
	}
	accepted := 0
	forEachSoup(n, func(b []byte) {
		if _, err := checkAgainstReference(t, b); err == nil {
			accepted++
		}
	})
	t.Logf("%d of %d soups accepted", accepted, n)
	if accepted < n/100 {
		t.Fatalf("only %d of %d soups were accepted: the generator no longer reaches the accepting paths", accepted, n)
	}
}

// forEachSoup generates the first n token soups, the same ones on every
// call, and hands each to visit in a buffer it reuses.
func forEachSoup(n int, visit func(soup []byte)) {
	tokens := []string{
		"<a>", "</a>", "<b>", "</b>", "<a/>", "<p:a>", "</p:a>", "<q:a>", "<a ", "<b ", "/>", ">", "<", "</", "/",
		`x="1"`, ` y='2'`, ` p:z="3"`, ` xmlns:p="xmlns"`, ` xmlns:p="u"`, ` xmlns="v"`, ` xml:w="4"`, ` q:xmlns="5"`, "=", `"`, `'`,
		"text", " ", "\n", "\r", "\r\n", "\t", "é", "×", " ", "　", "\xff", "\xc3", "\x00", "\x0b", "\xef\xbf\xbe", ":", "-", ".", "1",
		"&amp;", "&lt;", "&gt;", "&apos;", "&quot;", "&#10;", "&#13;", "&#x41;", "&#xD800;", "&#0;", "&#", "&", ";", "&nbsp;", "&#x110000;",
		"<![CDATA[", "]]>", "]]", "]", "<![", "<!--", "-->", "--", "<!-", "<!", "<!DOCTYPE a [", "<!ELEMENT a>", "[", "<?pi ", "?>", "<?", "?",
		"<?xml ", `version="1.0"`, `version="1.1"`, `version=`, ` encoding="utf-8"`, ` encoding='latin1'`, ` encoding=`,
	}
	seed := uint64(1)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(mod))
	}
	var b []byte
	for i := 0; i < n; i++ {
		b = b[:0]
		if next(2) == 0 {
			b = append(b, "<a>"...) // give half of them a chance to be accepted
		}
		for k := 1 + next(12); k > 0; k-- {
			b = append(b, tokens[next(len(tokens))]...)
		}
		if next(2) == 0 {
			b = append(b, "</a>"...)
		}
		visit(b)
	}
}
