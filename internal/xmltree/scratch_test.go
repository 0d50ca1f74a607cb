package xmltree

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// Parses on eight goroutines share the pool of scratches, and its symbol
// tables outlive every document: each parse, interleaved with the others
// over the benchmark's documents under the serve-scan projections and none,
// must come out node for node as the same parse made alone.
func TestConcurrentParsesMatchSequential(t *testing.T) {
	docs := benchDocs()
	projs := append([]*Projection{nil}, scanProjections...)
	want := make([]string, len(docs)*len(projs))
	for i := range want {
		d, err := ParseProjected("d.xml", docs[i/len(projs)].Data, projs[i%len(projs)])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = nodeDump(d)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				i := (k*7 + g*13) % len(want)
				d, err := ParseProjected("d.xml", docs[i/len(projs)].Data, projs[i%len(projs)])
				if err == nil && nodeDump(d) != want[i] {
					err = fmt.Errorf("document %d under projection %d differs from its parse alone", i/len(projs), i%len(projs))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A parse stamps the symbols it meets with the scratch's generation and
// trusts a symbol's projection flags and label entry only under its own
// stamp. When the stamp wraps, symbols stamped long ago (or never) must not
// pass for met: here one scratch parses across the wrap, a document whose
// names an early parse stamped under another projection beside names it
// never met, and every parse must equal one on a fresh scratch.
func TestGenerationWrapRefreshesSymbols(t *testing.T) {
	docs := benchDocs()
	both := append(append([]byte("<w>"), docs[0].Data...), append(docs[3].Data, "</w>"...)...)
	s := new(scratch)
	for i, step := range []struct {
		gen  uint32 // set before the parse, 0 to leave it
		data []byte
		proj *Projection
	}{
		{0, docs[0].Data, scanProjections[3]},
		{math.MaxUint32 - 1, docs[1].Data, scanProjections[1]},
		{0, both, nil},
		{0, both, scanProjections[0]},
	} {
		if step.gen != 0 {
			s.gen = step.gen
		}
		got, err := parseWith(s, new(arena), "d.xml", step.data, step.proj)
		if err != nil {
			t.Fatal(err)
		}
		want, err := parseWith(new(scratch), new(arena), "d.xml", step.data, step.proj)
		if err != nil {
			t.Fatal(err)
		}
		if nodeDump(got) != nodeDump(want) {
			t.Fatalf("parse %d (generation %d) differs from the same parse on a fresh scratch", i, s.gen)
		}
	}
	if s.gen != 2 {
		t.Fatalf("generation %d after the wrap, want 2", s.gen)
	}
}

// A prefixed name puts its local part into the symbol table as a symbol of
// its own, and the 1b of a:1b is no name by itself. A tag or attribute named
// 1b after it must still be rejected with the oracle's text, on a fresh
// scratch and on one that met a:1b in an earlier document.
func TestLocalPartIsNoNameOfItsOwn(t *testing.T) {
	used := new(scratch)
	if _, err := parseWith(used, new(arena), "d.xml", []byte(`<a:1b/>`), nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ src, err string }{
		{`<a:1b><1b/></a:1b>`, "expected element name after <"},
		{`<a:1b><c 1b="x"/></a:1b>`, "expected attribute name in element"},
		{`<a:1b 1b="x"/>`, "expected attribute name in element"},
	} {
		for _, s := range []*scratch{new(scratch), used} {
			if _, err := parseWith(s, new(arena), "d.xml", []byte(tc.src), nil); err == nil || !strings.HasSuffix(err.Error(), tc.err) {
				t.Errorf("%q on scratch %p (the used one is %p): %v, want %q", tc.src, s, used, err, tc.err)
			}
		}
	}
}

// A full parse of a document with more nodes than maxPooledSlots grows
// labelOf past it. That stack is let go; the symbol table and the other
// stacks stay for the next document.
func TestLargeDocumentKeepsTheSymbolTable(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<r>`)
	for i := 0; i <= maxPooledSlots; i++ {
		b.WriteString(`<a b="1"/>`)
	}
	b.WriteString(`</r>`)
	s := new(scratch)
	if _, err := parseWith(s, new(arena), "d.xml", []byte(b.String()), nil); err != nil {
		t.Fatal(err)
	}
	if len(s.labelOf) <= maxPooledSlots {
		t.Fatalf("labelOf holds %d entries", len(s.labelOf))
	}
	s.release()
	if s.labelOf != nil || len(s.syms) != 3 || cap(s.open) == 0 || cap(s.labelTab) == 0 {
		t.Fatalf("released with %d labelOf slots, %d symbols, %d open and %d label slots",
			cap(s.labelOf), len(s.syms), cap(s.open), cap(s.labelTab))
	}
}
