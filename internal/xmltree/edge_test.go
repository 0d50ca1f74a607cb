package xmltree

import (
	"strings"
	"testing"
)

// Edge cases of real-world XML that the warehouse must survive.

func TestCDataBecomesText(t *testing.T) {
	d := mustParse(t, "c.xml", `<a><![CDATA[raw <markup> & stuff]]></a>`)
	if got := d.Root.Value(); got != "raw <markup> & stuff" {
		t.Errorf("value = %q", got)
	}
	// And it survives a serialization round trip (escaped).
	content := d.Root.Content()
	d2, err := Parse("c2.xml", []byte(content))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, content)
	}
	if d2.Root.Value() != d.Root.Value() {
		t.Errorf("round trip value = %q", d2.Root.Value())
	}
}

func TestEntitiesDecoded(t *testing.T) {
	d := mustParse(t, "e.xml", `<a>Tom &amp; Jerry &lt;3</a>`)
	if got := d.Root.Value(); got != "Tom & Jerry <3" {
		t.Errorf("value = %q", got)
	}
}

func TestNamespacePrefixesUseLocalNames(t *testing.T) {
	src := `<x:painting xmlns:x="http://example.org/art"><x:name>Olympia</x:name></x:painting>`
	d := mustParse(t, "ns.xml", src)
	if d.Root.Label != "painting" {
		t.Errorf("root label = %q, want local name", d.Root.Label)
	}
	if len(d.NodesByLabel("name")) != 1 {
		t.Error("namespaced child not indexed under its local name")
	}
	// The xmlns declaration itself must not become an attribute node.
	for _, n := range d.Nodes() {
		if n.Kind == Attribute && strings.Contains(n.Label, "xmlns") {
			t.Errorf("xmlns leaked as attribute: %+v", n)
		}
	}
}

func TestMixedContentOrderAndIDs(t *testing.T) {
	d := mustParse(t, "m.xml", `<p>alpha<b>beta</b>gamma<b>delta</b></p>`)
	// Value concatenates in document order.
	if got := d.Root.Value(); got != "alphabetagammadelta" {
		t.Errorf("value = %q", got)
	}
	// Text runs on both sides of elements get their own nodes.
	texts := 0
	for _, n := range d.Nodes() {
		if n.Kind == Text {
			texts++
		}
	}
	if texts != 4 {
		t.Errorf("text nodes = %d, want 4", texts)
	}
	checkInvariants(t, d)
}

func TestCommentsAndPIsIgnored(t *testing.T) {
	d := mustParse(t, "c.xml", `<?xml version="1.0"?><!-- top --><a><!-- in -->x<?pi data?></a>`)
	if d.NodeCount() != 2 { // a + text
		t.Errorf("node count = %d, want 2", d.NodeCount())
	}
	if d.Root.Value() != "x" {
		t.Errorf("value = %q", d.Root.Value())
	}
}

func TestDeepNesting(t *testing.T) {
	var b strings.Builder
	const depth = 300
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	b.WriteString("leaf")
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	d := mustParse(t, "deep.xml", b.String())
	if got := len(d.NodesByLabel("d")); got != depth {
		t.Errorf("d elements = %d", got)
	}
	deepest := d.NodesByLabel("d")[depth-1]
	if deepest.ID.Depth != depth {
		t.Errorf("deepest depth = %d, want %d", deepest.ID.Depth, depth)
	}
	if !isAncestorOf(d.Root.ID, deepest.ID) {
		t.Error("root not ancestor of deepest node")
	}
}

func TestLargeFlatDocument(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		b.WriteString("<x/>")
	}
	b.WriteString("</r>")
	d := mustParse(t, "flat.xml", b.String())
	if d.NodeCount() != 5001 {
		t.Errorf("node count = %d", d.NodeCount())
	}
	// Postorder of the root is the node count; children are in pre order.
	xs := d.NodesByLabel("x")
	for i := 1; i < len(xs); i++ {
		if xs[i].ID.Pre <= xs[i-1].ID.Pre {
			t.Fatal("NodesByLabel not in document order")
		}
	}
}

func TestAttributeOrderIsDocumentOrder(t *testing.T) {
	d := mustParse(t, "a.xml", `<a z="1" y="2" x="3"/>`)
	want := []string{"z", "y", "x"}
	for i, c := range d.Root.Children {
		if c.Label != want[i] {
			t.Errorf("attribute %d = %q, want %q", i, c.Label, want[i])
		}
		if c.ID.Pre != int32(i+2) {
			t.Errorf("attribute %q pre = %d", c.Label, c.ID.Pre)
		}
	}
}

func TestWhitespacePreservedInsideText(t *testing.T) {
	d := mustParse(t, "w.xml", `<a>  two  spaces  </a>`)
	if got := d.Root.Value(); got != "  two  spaces  " {
		t.Errorf("value = %q (inner whitespace must survive)", got)
	}
}
