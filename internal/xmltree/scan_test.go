package xmltree

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// The value of <name>text</name> is the text node's own string: evaluating
// a predicate or filling a val column copies nothing.
func TestValueOfSingleTextChildDoesNotAllocate(t *testing.T) {
	d := mustParse(t, "v.xml", `<a><name id="1" lang="en">The Lion Hunt</name><empty k="v"/><mixed>x<b>y</b></mixed></a>`)
	for _, tc := range []struct {
		label, want string
		allocs      float64
	}{
		{"name", "The Lion Hunt", 0},
		{"empty", "", 0},
		{"b", "y", 0},
		{"mixed", "xy", 1},
	} {
		n := d.NodesByLabel(tc.label)[0]
		var got string
		allocs := testing.AllocsPerRun(100, func() { got = n.Value() })
		if got != tc.want || allocs != tc.allocs {
			t.Errorf("<%s>: value %q with %v allocs, want %q with %v", tc.label, got, allocs, tc.want, tc.allocs)
		}
	}
}

// The scanner keeps its open elements on a slice, not on the call stack.
func TestHundredThousandDeepNesting(t *testing.T) {
	const depth = 100_000
	var b bytes.Buffer
	b.WriteString(strings.Repeat(`<d k="v">`, depth))
	b.WriteString("leaf")
	b.WriteString(strings.Repeat("</d>", depth))
	d, err := checkAgainstReference(t, b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeCount() != 2*depth+1 {
		t.Fatalf("%d nodes, want %d", d.NodeCount(), 2*depth+1)
	}
	leaf := d.NodesByLabel("")[0]
	path := 0
	for n := leaf; n != nil; n = n.Parent {
		path++
	}
	if leaf.ID.Depth != depth+1 || path != depth+1 || d.Root.Value() != "leaf" {
		t.Fatalf("leaf at depth %d with a path of %d, root value %q", leaf.ID.Depth, path, d.Root.Value())
	}
}

// The slabs are sized from the tags left, so a tag that yields many nodes
// (here one with 50,000 attributes) outruns the guess, and the long text
// after it is what sizing a further chunk must not read again: the chunks,
// and with them the allocations, stay few, and the tags are counted once.
func TestManyNodesPerTagTakeFewChunks(t *testing.T) {
	const attrs = 50_000
	data := []byte(`<r><a` + strings.Repeat(` x=""`, attrs) + `/>` + strings.Repeat("lorem ipsum ", 1<<16) + `</r>`)
	d, err := checkAgainstReference(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeCount() != attrs+3 || len(d.NodesByLabel("x")) != attrs {
		t.Fatalf("%d nodes, %d of them x", d.NodeCount(), len(d.NodesByLabel("x")))
	}
	// Chunks that grow by a quarter make about 35 of these; chunks of
	// tags-left-plus-four nodes made 10,000.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Parse("d.xml", data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Fatalf("%v allocations for %d nodes", allocs, d.NodeCount())
	}
}

// A Label is the symbol table's copy of the name, so keeping one (an index
// key, a result column header) after the Document is dropped must not keep
// the document's text. A Text of a full parse is a copy in one chunk sized
// for all of the document's text and does keep that; the first case shows
// that the measurement sees the difference. A projected parse copies what
// it builds into small chunks, so a Text it kept pins one of them.
func TestRetainedLabelDoesNotPinDocumentText(t *testing.T) {
	const docs, textBytes = 32, 512 << 10
	lorem := strings.Repeat("lorem ipsum ", textBytes/12)
	data := []byte(`<root id="r"><name>Olympia</name><item>` + lorem + `</item></root>`)

	retainedBy := func(proj *Projection, keep func(d *Document) string) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := make([]string, 0, docs)
		for i := 0; i < docs; i++ {
			d, err := ParseProjected("r.xml", data, proj)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, keep(d))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}

	total := uint64(docs * len(data))
	if got := retainedBy(nil, func(d *Document) string { return d.Root.Children[0].Text }); got < total/2 {
		t.Fatalf("keeping a Text retained %d of %d bytes: the measurement no longer sees a pinned document", got, total)
	}
	if got := retainedBy(nil, func(d *Document) string { return d.Root.Label }); got > total/20 {
		t.Fatalf("keeping a Label retained %d bytes of %d of document text", got, total)
	}
	name := &Projection{Elements: map[string]Keep{"name": KeepText}}
	if got := retainedBy(name, func(d *Document) string { return d.NodesByLabel("")[0].Text }); got > docs*maxTextChunk {
		t.Fatalf("keeping a projected Text retained %d bytes, more than a %d-byte chunk per document", got, maxTextChunk)
	}
}

// nodeDump renders everything a built node reads: kind, label, text,
// identifier, parent and children (by pre rank), Value and Content.
func nodeDump(d *Document) string {
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
		fmt.Fprintf(&b, " ] value=%q content=%q\n", n.Value(), n.Content())
	}
	return b.String()
}

// The scan reads the caller's bytes in place, and a document keeps a copy
// of what it needs: overwriting the input afterwards changes no node, under
// Parse, the serve-scan projections and one that builds whole subtrees.
func TestDocumentKeepsNothingOfTheInput(t *testing.T) {
	var inputs [][]byte
	for _, d := range benchDocs() {
		inputs = append(inputs, d.Data)
	}
	for _, tc := range edgeInputs {
		inputs = append(inputs, []byte(tc.src))
	}
	keepAll := &Projection{ // whole subtrees of the benchmark's documents
		Elements:   map[string]Keep{"description": KeepAll, "address": KeepAll, "bidder": KeepNode | KeepAll},
		Attributes: map[string]bool{"person": true},
	}
	projs := append([]*Projection{nil, keepAll}, scanProjections...)
	for _, data := range inputs {
		for _, proj := range projs {
			want, err := ParseProjected("d.xml", bytes.Clone(data), proj)
			if err != nil {
				continue
			}
			buf := bytes.Clone(data)
			got, err := ParseProjected("d.xml", buf, proj)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = "<&x\r]>\""[i%7]
			}
			if g, w := nodeDump(got), nodeDump(want); g != w {
				t.Fatalf("after the input was overwritten, projection %v\n--- got\n%.2000s\n--- want\n%.2000s", proj, g, w)
			}
		}
	}
}

// Names that agree in length and in their first, middle and last byte are
// all one bucket to a hash of those bytes. The symbol table hashes whole
// names under a seed, so 50,000 of them parse in time and allocations near
// those of a document of the same size with one name, and the scratch they
// filled does not go back to the pool.
func TestManyLookalikeNamesStayLinear(t *testing.T) {
	const names = 50_000
	var lookalike, repeated bytes.Buffer
	lookalike.WriteString("<r>")
	repeated.WriteString("<r>")
	for i := 0; i < names; i++ {
		n := []byte("a..m..z")
		n[1], n[2], n[4], n[5] = 'a'+byte(i%26), 'a'+byte(i/26%26), 'a'+byte(i/676%26), 'a'+byte(i/17576%26)
		fmt.Fprintf(&lookalike, "<%s/>", n)
		repeated.WriteString("<aaamaaz/>")
	}
	lookalike.WriteString("</r>")
	repeated.WriteString("</r>")

	d, err := checkAgainstReference(t, lookalike.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeCount() != names+1 || len(d.labels) != names+1 {
		t.Fatalf("%d nodes under %d labels", d.NodeCount(), len(d.labels))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Parse("d.xml", lookalike.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Fatalf("%v allocations for %d names", allocs, names)
	}

	// The two are timed in turn and the best of each kept, so that a stretch
	// of load on the machine slows both or neither. What is timed is the
	// processor time the parse used, not the clock: a parse of 10 ms on a
	// loaded machine waits for a core now and then, one of 2 ms seldom. The
	// collector runs between the parses, not during them, for the same
	// reason: its workers would wait for a core too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	took := func(data []byte) time.Duration {
		runtime.GC()
		start := processorTime()
		if _, err := Parse("d.xml", data); err != nil {
			t.Fatal(err)
		}
		return processorTime() - start
	}
	var l, r time.Duration
	for i := 0; i < 10; i++ {
		tl, tr := took(lookalike.Bytes()), took(repeated.Bytes())
		if i == 0 || tl < l {
			l = tl
		}
		if i == 0 || tr < r {
			r = tr
		}
	}
	t.Logf("%d lookalike names: %v allocations, %v; one name repeated: %v", names, allocs, l, r)
	if l > 10*r {
		t.Fatalf("%d lookalike names parse in %v, one name repeated as often in %v", names, l, r)
	}

	var held []*scratch
	for i := 0; i < 64; i++ {
		s := scratchPool.Get().(*scratch)
		if len(s.syms) > maxPooledSymbols {
			t.Fatalf("a pooled scratch holds %d symbols", len(s.syms))
		}
		held = append(held, s)
	}
	for _, s := range held {
		scratchPool.Put(s)
	}
}
