package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The two sample documents of Figure 3.
const (
	delacroixXML = `<painting id="1854-1"><name>The Lion Hunt</name><painter><name><first>Eugene</first><last>Delacroix</last></name></painter></painting>`
	manetXML     = `<painting id="1863-1"><name>Olympia</name><painter><name><first>Edouard</first><last>Manet</last></name></painter></painting>`
)

func mustParse(t *testing.T, uri, src string) *Document {
	t.Helper()
	d, err := Parse(uri, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure3Identifiers checks the exact (pre, post, depth) assignments the
// paper shows for "manet.xml": ename -> (3,3,2) and (6,8,3); aid -> (2,1,2);
// wOlympia -> (4,2,3).
func TestFigure3Identifiers(t *testing.T) {
	d := mustParse(t, "manet.xml", manetXML)

	names := d.NodesByLabel("name")
	if len(names) != 2 {
		t.Fatalf("got %d name elements, want 2", len(names))
	}
	if got, want := names[0].ID, (NodeID{3, 3, 2}); got != want {
		t.Errorf("painting/name ID = %v, want %v", got, want)
	}
	if got, want := names[1].ID, (NodeID{6, 8, 3}); got != want {
		t.Errorf("painter/name ID = %v, want %v", got, want)
	}

	ids := d.NodesByLabel("id")
	if len(ids) != 1 || ids[0].Kind != Attribute {
		t.Fatalf("id attribute not found: %v", ids)
	}
	if got, want := ids[0].ID, (NodeID{2, 1, 2}); got != want {
		t.Errorf("@id ID = %v, want %v", got, want)
	}
	if ids[0].Text != "1863-1" {
		t.Errorf("@id value = %q", ids[0].Text)
	}

	// The text node 'Olympia' carries (4, 2, 3).
	olympia := names[0].Children[0]
	if olympia.Kind != Text || olympia.Text != "Olympia" {
		t.Fatalf("unexpected child %+v", olympia)
	}
	if got, want := olympia.ID, (NodeID{4, 2, 3}); got != want {
		t.Errorf("'Olympia' ID = %v, want %v", got, want)
	}

	// Root gets the final postorder rank.
	root := d.Root
	if root.Label != "painting" || root.ID.Depth != 1 || root.ID.Pre != 1 {
		t.Errorf("root = %+v", root.ID)
	}
	if int(root.ID.Post) != d.NodeCount() {
		t.Errorf("root post = %d, want %d", root.ID.Post, d.NodeCount())
	}
}

func TestAncestorAndParentTests(t *testing.T) {
	d := mustParse(t, "manet.xml", manetXML)
	painting := d.Root
	painterName := d.NodesByLabel("name")[1]
	first := d.NodesByLabel("first")[0]

	if !isAncestorOf(painting.ID, painterName.ID) {
		t.Error("painting must be ancestor of painter/name")
	}
	if isParentOf(painting.ID, painterName.ID) {
		t.Error("painting must not be parent of painter/name (depth gap)")
	}
	painter := d.NodesByLabel("painter")[0]
	if !isParentOf(painter.ID, painterName.ID) {
		t.Error("painter must be parent of its name")
	}
	if !isParentOf(painterName.ID, first.ID) {
		t.Error("name must be parent of first")
	}
	if isAncestorOf(painterName.ID, painting.ID) {
		t.Error("descendant claimed to be ancestor")
	}
	if isAncestorOf(painterName.ID, painterName.ID) {
		t.Error("node must not be its own ancestor")
	}
}

func TestValue(t *testing.T) {
	d := mustParse(t, "delacroix.xml", delacroixXML)
	if got := d.Root.Value(); got != "The Lion HuntEugeneDelacroix" {
		t.Errorf("painting value = %q", got)
	}
	name := d.NodesByLabel("name")[0]
	if got := name.Value(); got != "The Lion Hunt" {
		t.Errorf("name value = %q", got)
	}
	id := d.NodesByLabel("id")[0]
	if got := id.Value(); got != "1854-1" {
		t.Errorf("@id value = %q", got)
	}
}

func TestContentRoundTrips(t *testing.T) {
	d := mustParse(t, "delacroix.xml", delacroixXML)
	content := d.Root.Content()
	// Re-parsing the serialization must yield the identical structure.
	d2, err := Parse("again.xml", []byte(content))
	if err != nil {
		t.Fatalf("reparsing content: %v", err)
	}
	if d2.NodeCount() != d.NodeCount() {
		t.Errorf("node count %d after round trip, want %d", d2.NodeCount(), d.NodeCount())
	}
	for i, n := range d.Nodes() {
		m := d2.Nodes()[i]
		if n.Kind != m.Kind || n.Label != m.Label || n.Text != m.Text || n.ID != m.ID {
			t.Errorf("node %d differs: %+v vs %+v", i, n, m)
		}
	}
}

func TestContentEscaping(t *testing.T) {
	src := `<a x="3 &lt; 4">if a&amp;b &lt; c</a>`
	d := mustParse(t, "esc.xml", src)
	content := d.Root.Content()
	if _, err := Parse("esc2.xml", []byte(content)); err != nil {
		t.Fatalf("escaped content does not reparse: %v\n%s", err, content)
	}
	if !strings.Contains(content, "&amp;") || !strings.Contains(content, "&lt;") {
		t.Errorf("content not escaped: %s", content)
	}
}

func TestEmptyElementSerialization(t *testing.T) {
	d := mustParse(t, "e.xml", `<a><b/><c k="v"/></a>`)
	content := d.Root.Content()
	if !strings.Contains(content, "<b/>") || !strings.Contains(content, `<c k="v"/>`) {
		t.Errorf("content = %s", content)
	}
}

func TestWhitespaceBetweenElementsIgnored(t *testing.T) {
	pretty := "<painting>\n  <name>Olympia</name>\n  <year>1863</year>\n</painting>"
	d := mustParse(t, "p.xml", pretty)
	// Nodes: painting, name, 'Olympia', year, '1863' — no whitespace nodes.
	if got := d.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5", got)
	}
}

func TestPath(t *testing.T) {
	d := mustParse(t, "manet.xml", manetXML)
	last := d.NodesByLabel("last")[0]
	// The label path from the root (inPath of Section 5), read up the
	// Parent links.
	var labels []string
	for n := last; n != nil; n = n.Parent {
		labels = append([]string{n.Label}, labels...)
	}
	want := []string{"painting", "painter", "name", "last"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("path = %v, want %v", labels, want)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("x", []byte("   ")); !errors.Is(err, ErrEmptyDocument) {
		t.Errorf("empty doc: %v", err)
	}
	if _, err := Parse("x", []byte("<a><b></a>")); err == nil {
		t.Error("mismatched tags accepted")
	}
	if _, err := Parse("x", []byte("<a/><b/>")); err == nil {
		t.Error("multiple roots accepted")
	}
}

func TestNodeByPre(t *testing.T) {
	d := mustParse(t, "manet.xml", manetXML)
	for i, n := range d.Nodes() {
		if n.ID.Pre != int32(i+1) {
			t.Errorf("Nodes()[%d] has pre %d, want %d", i, n.ID.Pre, i+1)
		}
	}
}

// isAncestorOf reports whether a identifies a strict ancestor of b: a
// starts before b and ends after it.
func isAncestorOf(a, b NodeID) bool { return a.Pre < b.Pre && a.Post > b.Post }

// isParentOf reports whether a identifies the parent of b.
func isParentOf(a, b NodeID) bool { return isAncestorOf(a, b) && a.Depth+1 == b.Depth }

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"The Lion Hunt", []string{"The", "Lion", "Hunt"}},
		{"1863-1", []string{"1863-1"}},
		{"", nil},
		{"  a,b;c  ", []string{"a", "b", "c"}},
		{"year=1854!", []string{"year", "1854"}},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if !ContainsWord("The Lion Hunt", "Lion") {
		t.Error("ContainsWord failed on exact word")
	}
	if ContainsWord("The Lion Hunt", "Lio") {
		t.Error("ContainsWord matched a prefix")
	}
	if ContainsWord("The Lion Hunt", "lion") {
		t.Error("ContainsWord must be case-sensitive")
	}
}

// wordsByRune is Words as it was before NextWord: a range over the runes.
func wordsByRune(s string) []string {
	var words []string
	start := -1
	for i, r := range s {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			words = append(words, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		words = append(words, s[start:])
	}
	return words
}

// NextWord cuts byte by byte; the definition is by rune. Both must agree,
// and the iterator and ContainsWord must not allocate.
func TestNextWordAgreesWithRunes(t *testing.T) {
	inputs := []string{
		"", " ", "a", " a", "a ", "The Lion Hunt", "  a,b;c  ", "year=1854!",
		"1863-1", "snake_case and kebab-case", "-", "_", "--a__", "a-_-b",
		"naïve café", "Ångström", "日本語 テキスト", "x y", "é", "—dash—",
		"bad\xffutf8", "\xff", "a\xc3", "\xe6\x97", "tab\tnew\nline\r.",
		"<&>\"'", "a.b.c.d", strings.Repeat("word ", 100),
	}
	for _, in := range inputs {
		want := wordsByRune(in)
		if got := Words(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Words(%q) = %q, by rune %q", in, got, want)
		}
		i := 0
		for _, w := range want {
			var got string
			if got, i = NextWord(in, i); got != w {
				t.Fatalf("NextWord(%q) = %q, want %q", in, got, w)
			}
			if !ContainsWord(in, w) {
				t.Errorf("ContainsWord(%q, %q) = false", in, w)
			}
		}
		if got, next := NextWord(in, i); got != "" || next != len(in) {
			t.Errorf("NextWord(%q, %d) past the last word = %q, %d", in, i, got, next)
		}
	}
	text := strings.Repeat("The Lion Hunt, 1854; ", 50) + "Olympia"
	if n := testing.AllocsPerRun(100, func() {
		if !ContainsWord(text, "Olympia") || ContainsWord(text, "Olymp") {
			t.Fatal("ContainsWord wrong")
		}
	}); n != 0 {
		t.Errorf("ContainsWord allocates %v times, want 0", n)
	}
}

// Structural invariants that must hold for every parsed document:
// pre/post/depth are consistent, and the ancestor test agrees with the tree.
func checkInvariants(t *testing.T, d *Document) {
	t.Helper()
	seenPre := make(map[int32]bool)
	seenPost := make(map[int32]bool)
	for _, n := range d.Nodes() {
		if seenPre[n.ID.Pre] || seenPost[n.ID.Post] {
			t.Fatalf("duplicate pre/post in %s: %v", d.URI, n.ID)
		}
		seenPre[n.ID.Pre] = true
		seenPost[n.ID.Post] = true
		if n.Parent != nil {
			if !isParentOf(n.Parent.ID, n.ID) {
				t.Fatalf("parent test fails for %v under %v", n.ID, n.Parent.ID)
			}
		} else if n.ID.Depth != 1 {
			t.Fatalf("root depth = %d", n.ID.Depth)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatal("child parent pointer broken")
			}
		}
	}
	// Ancestor test agrees with actual tree ancestry for all pairs.
	for _, a := range d.Nodes() {
		for _, b := range d.Nodes() {
			want := false
			for cur := b.Parent; cur != nil; cur = cur.Parent {
				if cur == a {
					want = true
					break
				}
			}
			if got := isAncestorOf(a.ID, b.ID); got != want {
				t.Fatalf("isAncestorOf(%v, %v) = %v, want %v", a.ID, b.ID, got, want)
			}
		}
	}
}

func TestInvariantsOnSamples(t *testing.T) {
	for _, src := range []string{delacroixXML, manetXML,
		`<a><b><c/><d>x</d></b><b y="1">t<e/>u</b></a>`} {
		checkInvariants(t, mustParse(t, "s.xml", src))
	}
}

// Property test: random small trees keep the invariants.
func TestInvariantsProperty(t *testing.T) {
	labels := []string{"a", "b", "c"}
	var build func(seed *uint64, depth int) string
	next := func(seed *uint64) uint64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return *seed >> 33
	}
	build = func(seed *uint64, depth int) string {
		l := labels[next(seed)%3]
		var b strings.Builder
		b.WriteString("<" + l)
		if next(seed)%4 == 0 {
			b.WriteString(` k="v` + labels[next(seed)%3] + `"`)
		}
		b.WriteString(">")
		kids := int(next(seed) % 4)
		if depth > 3 {
			kids = 0
		}
		for i := 0; i < kids; i++ {
			if next(seed)%3 == 0 {
				b.WriteString("text" + labels[next(seed)%3])
			} else {
				b.WriteString(build(seed, depth+1))
			}
		}
		b.WriteString("</" + l + ">")
		return b.String()
	}
	f := func(s uint64) bool {
		src := build(&s, 0)
		d, err := Parse("prop.xml", []byte(src))
		if err != nil {
			return false
		}
		sub := &testing.T{}
		checkInvariants(sub, d)
		return !sub.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// escapeText must write what encoding/xml's EscapeText writes for any string,
// also for what no parsed document holds: invalid UTF-8, control characters,
// the non-characters.
func TestEscapeTextMatchesEncodingXML(t *testing.T) {
	inputs := []string{
		"", "plain", `<a b="c" d='e'>&amp;</a>`, "tab\tnl\ncr\r", "\x00\x01\x1f\x7f", "é日本😀", "\xff", "a\xc3", "\xc3(", "\xed\xa0\x80",
		"\xef\xbf\xbd", "\xef\xbf\xbe", "\xef\xbf\xbf", "x\xef\xbf\xbey", "\xf4\x90\x80\x80", "\xc0\xaf", "]]>",
	}
	seed := uint64(7)
	for i := 0; i < 2000; i++ {
		b := make([]byte, i%40)
		for j := range b {
			seed = seed*6364136223846793005 + 1442695040888963407
			b[j] = byte(seed >> 56)
			if seed>>40&3 == 0 {
				b[j] = "<>&'\"\t\n\r ax"[(seed>>32)%11]
			}
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		var got strings.Builder
		var want bytes.Buffer
		escapeText(&got, in)
		if err := xml.EscapeText(&want, []byte(in)); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("escapeText(%q) = %q, encoding/xml writes %q", in, got.String(), want.String())
		}
	}
}
