package xmltree

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xmark"
)

// keptNode is a node of the full tree that a projection keeps: its nearest
// kept ancestor (nil for none) and whether its Value and its Content must be
// those of the full tree.
type keptNode struct {
	n              *Node
	parent         *Node
	value, content bool
}

// keptNodes computes from the full tree, without the scanner, which nodes a
// projection keeps, in document order: the rule of ParseProjected's comment,
// by recursion over the tree.
func keptNodes(full *Document, proj *Projection) []keptNode {
	var kept []keptNode
	var walk func(n, above *Node, text, all bool)
	walk = func(n, above *Node, text, all bool) {
		switch n.Kind {
		case Attribute:
			if all || proj.Attributes[n.Label] {
				kept = append(kept, keptNode{n: n, parent: above, value: true})
			}
		case Text:
			if text || all {
				kept = append(kept, keptNode{n: n, parent: above, value: true})
			}
		case Element:
			own := proj.Elements[n.Label]
			build := all || own != 0
			text = text || own&KeepText != 0
			all = all || own&KeepAll != 0
			if build {
				kept = append(kept, keptNode{n: n, parent: above, value: text || all, content: all})
				above = n
			}
			for _, c := range n.Children {
				walk(c, above, text, all)
			}
		}
	}
	walk(full.Root, nil, false, false)
	return kept
}

// checkProjected holds the projected parse of data under proj to the full
// document, node for node.
func checkProjected(t testing.TB, data []byte, proj *Projection, full *Document) *Document {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\nprojection %+v\ninput %.400q", fmt.Sprintf(format, args...), *proj, data)
	}
	pd, err := ParseProjected("d.xml", data, proj)
	if err != nil {
		fail("the projected parse rejects what Parse accepts: %v", err)
	}
	if pd.URI != "d.xml" || pd.SourceBytes != int64(len(data)) || pd.NodesScanned() != full.NodeCount() {
		fail("URI %q, SourceBytes %d, NodesScanned %d of a document of %d nodes", pd.URI, pd.SourceBytes, pd.NodesScanned(), full.NodeCount())
	}
	want := keptNodes(full, proj)
	if pd.NodeCount() != len(want) || len(pd.Nodes()) != len(want) {
		fail("%d nodes built, the rule keeps %d", pd.NodeCount(), len(want))
	}
	childrenOf := map[*Node][]int32{} // by the full tree's node; nil for the top
	for _, k := range want {
		childrenOf[k.parent] = append(childrenOf[k.parent], k.n.ID.Pre)
	}
	byLabel := map[string][]*Node{}
	for i, k := range want {
		got := pd.Nodes()[i]
		if got.Label != k.n.Label || got.Text != k.n.Text || got.Kind != k.n.Kind || got.ID != k.n.ID {
			fail("node %d is %s %q %q %v, the full tree has %s %q %q %v", i, got.Kind, got.Label, got.Text, got.ID, k.n.Kind, k.n.Label, k.n.Text, k.n.ID)
		}
		switch {
		case k.parent == nil && got.Parent != nil:
			fail("node %v hangs under %v, want under nothing", got.ID, got.Parent.ID)
		case k.parent != nil && (got.Parent == nil || got.Parent.ID != k.parent.ID):
			fail("node %v does not hang under its nearest kept ancestor %v", got.ID, k.parent.ID)
		}
		var kids []int32
		for _, c := range got.Children {
			kids = append(kids, c.ID.Pre)
		}
		if fmt.Sprint(kids) != fmt.Sprint(childrenOf[k.n]) {
			fail("children of %v are %v, want %v", got.ID, kids, childrenOf[k.n])
		}
		if k.value && got.Value() != k.n.Value() {
			fail("Value of %v is %q, want %q", got.ID, got.Value(), k.n.Value())
		}
		if k.content && got.Content() != k.n.Content() {
			fail("Content of %v is %q, want %q", got.ID, got.Content(), k.n.Content())
		}
		byLabel[got.Label] = append(byLabel[got.Label], got)
	}
	byPre := map[int32]*Node{}
	for _, n := range pd.Nodes() {
		byPre[n.ID.Pre] = n
	}
	for pre := int32(0); pre <= int32(full.NodeCount())+1; pre++ {
		if got := pd.NodeByPre(pre); got != byPre[pre] {
			fail("NodeByPre(%d) returns %v, want %v", pre, got, byPre[pre])
		}
	}
	for _, n := range full.Nodes() {
		got, want := pd.NodesByLabel(n.Label), byLabel[n.Label]
		if len(got) != len(want) {
			fail("NodesByLabel(%q): %d nodes, want %d", n.Label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				fail("NodesByLabel(%q)[%d] = %v, want %v", n.Label, i, got[i].ID, want[i].ID)
			}
		}
	}
	if rootKept := len(want) > 0 && want[0].n == full.Root; rootKept != (pd.Root != nil) || rootKept && pd.Root != pd.Nodes()[0] {
		fail("Root is %v", pd.Root)
	}
	return pd
}

// drawProjection draws a projection from the document's own names: each
// element label with probability 1/density and a random set of flags, each
// attribute name with the same probability.
func drawProjection(rng *rand.Rand, full *Document, density int) *Projection {
	flags := []Keep{KeepNode, KeepNode, KeepNode | KeepText, KeepText, KeepNode | KeepAll, KeepAll, KeepNode | KeepText | KeepAll}
	proj := &Projection{Elements: map[string]Keep{}, Attributes: map[string]bool{}}
	for _, n := range full.Nodes() {
		switch n.Kind {
		case Element:
			if _, seen := proj.Elements[n.Label]; !seen {
				proj.Elements[n.Label] = 0
				if rng.Intn(density) == 0 {
					proj.Elements[n.Label] = flags[rng.Intn(len(flags))]
				}
			}
		case Attribute:
			if _, seen := proj.Attributes[n.Label]; !seen {
				proj.Attributes[n.Label] = rng.Intn(density) == 0
			}
		}
	}
	return proj
}

// checkProjections holds ParseProjected to Parse on one input under a few
// projections: the empty one, one of names the input may not hold, and some
// drawn from the document's own names when there is a document. Whatever
// the projection, the verdict and the error text are those of Parse.
func checkProjections(t testing.TB, data []byte) {
	t.Helper()
	full, fullErr := Parse("d.xml", data)
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	projs := []*Projection{
		{},
		{Elements: map[string]Keep{"a": KeepNode, "b": KeepText, "c": KeepAll}, Attributes: map[string]bool{"x": true, "id": true}},
	}
	if fullErr == nil {
		projs = append(projs, drawProjection(rng, full, 1), drawProjection(rng, full, 2), drawProjection(rng, full, 2), drawProjection(rng, full, 6))
	}
	for _, proj := range projs {
		if fullErr != nil {
			if _, err := ParseProjected("d.xml", data, proj); err == nil || err.Error() != fullErr.Error() {
				t.Fatalf("Parse rejects with %q, the projected parse under %+v says %v\ninput %.400q", fullErr, *proj, err, data)
			}
			continue
		}
		checkProjected(t, data, proj, full)
	}
}

// TestProjectedNodesAreFullNodes runs the projection contract over the
// gate's XMark documents, the paintings, the edge and leniency tables and the
// token soups.
func TestProjectedNodesAreFullNodes(t *testing.T) {
	cfg := xmark.DefaultConfig(60)
	cfg.Seed = 42
	cfg.TargetDocBytes = 16 << 10
	for i := 0; i < cfg.Docs; i++ {
		checkProjections(t, xmark.GenerateDoc(cfg, i).Data)
	}
	for _, gd := range xmark.Paintings() {
		checkProjections(t, gd.Data)
	}
	for _, tc := range edgeInputs {
		checkProjections(t, []byte(tc.src))
	}
	for _, tc := range leniencies {
		checkProjections(t, []byte(tc.src))
	}
	n := 20000
	if testing.Short() {
		n = 2000
	}
	forEachSoup(n, func(soup []byte) { checkProjections(t, soup) })
}

// The projections of the serve-scan queries over the gate's documents, and
// that they build what the issue that introduced them measured: between a
// twentieth and a fifth of the nodes.
func TestScanProjectionsBuildAFractionOfTheNodes(t *testing.T) {
	for pi, proj := range scanProjections {
		var built, scanned int
		for _, d := range benchDocs() {
			full, err := Parse("d.xml", d.Data)
			if err != nil {
				t.Fatal(err)
			}
			pd := checkProjected(t, d.Data, proj, full)
			built += pd.NodeCount()
			scanned += pd.NodesScanned()
		}
		if share := float64(built) / float64(scanned); share < 0.05 || share > 0.20 {
			t.Errorf("projection %d builds %d of %d nodes (%.3f), want between 0.05 and 0.20", pi, built, scanned, share)
		}
	}
}

func TestProjectionNamedCases(t *testing.T) {
	pres := func(nodes []*Node) string {
		var b strings.Builder
		for _, n := range nodes {
			fmt.Fprintf(&b, " %d", n.ID.Pre)
		}
		return b.String()
	}
	parse := func(t *testing.T, src string, proj *Projection) *Document {
		t.Helper()
		full, err := Parse("d.xml", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		return checkProjected(t, []byte(src), proj, full)
	}

	t.Run("a wanted label nested in itself", func(t *testing.T) {
		d := parse(t, `<d><parlist><listitem>a<parlist><listitem>b</listitem><listitem>c</listitem></parlist></listitem></parlist></d>`,
			&Projection{Elements: map[string]Keep{"parlist": KeepNode, "listitem": KeepText}})
		outer := d.NodesByLabel("parlist")[0]
		if d.Root != nil || outer.Parent != nil || len(d.NodesByLabel("parlist")) != 2 || len(d.NodesByLabel("listitem")) != 3 {
			t.Fatalf("root %v, outer parlist under %v", d.Root, outer.Parent)
		}
		li := outer.Children[0]
		if li.Value() != "abc" || pres(li.Children) != " 4 5" || li.Children[1].Children[0].Value() != "b" {
			t.Fatalf("outer listitem: value %q, children%s", li.Value(), pres(li.Children))
		}
	})
	t.Run("one name as element and as attribute", func(t *testing.T) {
		src := `<a id="1"><id>2</id><b id="3"/></a>`
		d := parse(t, src, &Projection{Elements: map[string]Keep{"id": KeepText}})
		if got := d.NodesByLabel("id"); len(got) != 1 || got[0].Kind != Element || got[0].Value() != "2" {
			t.Fatalf("element id alone: %d nodes", len(got))
		}
		d = parse(t, src, &Projection{Attributes: map[string]bool{"id": true}})
		if got := d.NodesByLabel("id"); len(got) != 2 || got[0].Kind != Attribute || got[1].Text != "3" || d.NodesByLabel("") != nil {
			t.Fatalf("attribute id alone: %d nodes", len(got))
		}
	})
	t.Run("mixed content under a value node", func(t *testing.T) {
		d := parse(t, `<r><p>alpha<b>beta</b>gamma<i k="v">delta</i></p></r>`, &Projection{Elements: map[string]Keep{"p": KeepNode | KeepText}})
		p := d.NodesByLabel("p")[0]
		if p.Value() != "alphabetagammadelta" || len(p.Children) != 4 || d.NodeCount() != 5 {
			t.Fatalf("value %q from %d children of %d nodes", p.Value(), len(p.Children), d.NodeCount())
		}
	})
	t.Run("a wanted attribute on a dropped element", func(t *testing.T) {
		d := parse(t, `<a><b id="1"><c id="2"/></b><d id="3"/></a>`, &Projection{
			Elements: map[string]Keep{"a": KeepNode, "d": KeepNode}, Attributes: map[string]bool{"id": true}})
		if got := pres(d.Root.Children); got != " 3 5 6" {
			t.Fatalf("children of a:%s", got)
		}
		if id := d.Root.Children[1]; id.ID.Depth != 4 || id.Parent != d.Root || id.Text != "2" {
			t.Fatalf("the attribute of c: %+v", id)
		}
	})
	t.Run("a cont node under dropped ancestors", func(t *testing.T) {
		d := parse(t, `<a><b><c k="v">x<d e="f"/>y &amp; z</c></b></a>`, &Projection{Elements: map[string]Keep{"c": KeepNode | KeepAll}})
		c := d.NodesByLabel("c")[0]
		if d.Root != nil || c.Parent != nil || c.ID != (NodeID{Pre: 3, Post: 6, Depth: 3}) {
			t.Fatalf("root %v, c %v under %v", d.Root, c.ID, c.Parent)
		}
		if got := c.Content(); got != `<c k="v">x<d e="f"/>y &amp; z</c>` {
			t.Fatalf("content %s", got)
		}
	})
	t.Run("nothing is kept", func(t *testing.T) {
		d := parse(t, `<a><b c="1">x</b></a>`, &Projection{Elements: map[string]Keep{"z": KeepAll}})
		if d.Root != nil || d.NodeCount() != 0 || d.NodesScanned() != 4 || d.NodesByLabel("a") != nil || d.NodeByPre(1) != nil {
			t.Fatalf("root %v, %d nodes built, %d scanned", d.Root, d.NodeCount(), d.NodesScanned())
		}
		if _, err := ParseProjected("d.xml", []byte(" <!-- no root --> "), &Projection{}); err == nil {
			t.Fatal("a projected parse accepts a document without a root element")
		}
	})
}

// The share of nodes built so far sizes the slabs of a projected parse. Here
// it is nil for the first half of the input and one for the second, which
// the chunks must catch up with in few steps; and where a few nodes are
// wanted of many, the slab must not be sized for the many.
func TestProjectedParseTakesFewAndSmallChunks(t *testing.T) {
	const dropped, kept = 20_000, 20_000
	data := []byte(`<r>` + strings.Repeat(`<skip/>`, dropped) + `<keep>` + strings.Repeat(`<x k=""/>`, kept) + `</keep></r>`)
	proj := &Projection{Elements: map[string]Keep{"keep": KeepAll}}
	if d, err := ParseProjected("d.xml", data, proj); err != nil || d.NodeCount() != 2*kept+1 || d.NodesScanned() != dropped+2*kept+2 {
		t.Fatalf("%d nodes built of %d, %v", d.NodeCount(), d.NodesScanned(), err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ParseProjected("d.xml", data, proj); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Fatalf("%v allocations for %d built nodes", allocs, 2*kept+1)
	}

	// One node in a thousand: the whole parse stays a small multiple of the
	// copy of the input it keeps.
	sparse := []byte(`<r>` + strings.Repeat(`<skip/>`, 999) + strings.Repeat(`<x/>`+strings.Repeat(`<skip/>`, 999), 50) + `</r>`)
	proj = &Projection{Elements: map[string]Keep{"x": KeepNode}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := ParseProjected("d.xml", sparse, proj)
	runtime.ReadMemStats(&after)
	if err != nil || d.NodeCount() != 50 {
		t.Fatalf("%d nodes built, %v", d.NodeCount(), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(2*len(sparse)) {
		t.Fatalf("%d bytes allocated for 50 nodes of a %d-byte input", got, len(sparse))
	}
}
