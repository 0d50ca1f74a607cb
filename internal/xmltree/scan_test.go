package xmltree

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
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
	if leaf.ID.Depth != depth+1 || len(leaf.Path()) != depth+1 || d.Root.Value() != "leaf" {
		t.Fatalf("leaf at depth %d with a path of %d, root value %q", leaf.ID.Depth, len(leaf.Path()), d.Root.Value())
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

// A Label is the document's own copy of the name, so keeping one (an index
// key, a result column header) after the Document is dropped must not keep
// the document's text. A Text is a sub-slice of that text and does keep it;
// the first half of the test shows that the measurement sees the difference.
func TestRetainedLabelDoesNotPinDocumentText(t *testing.T) {
	const docs, textBytes = 32, 512 << 10
	data := []byte(`<root id="r"><item>` + strings.Repeat("lorem ipsum ", textBytes/12) + `</item></root>`)

	retainedBy := func(keep func(d *Document) string) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := make([]string, 0, docs)
		ids := make([]NodeID, 0, docs)
		for i := 0; i < docs; i++ {
			d, err := Parse("r.xml", data)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, keep(d))
			ids = append(ids, d.Root.ID)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		runtime.KeepAlive(ids)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}

	total := uint64(docs * len(data))
	if got := retainedBy(func(d *Document) string { return d.Root.Children[0].Text }); got < total/2 {
		t.Fatalf("keeping a Text retained %d of %d bytes: the measurement no longer sees a pinned document", got, total)
	}
	if got := retainedBy(func(d *Document) string { return d.Root.Label }); got > total/20 {
		t.Fatalf("keeping a Label retained %d bytes of %d of document text", got, total)
	}
}
