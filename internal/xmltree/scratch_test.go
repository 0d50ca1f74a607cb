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

// A symbol's guesses outlive the document that trained them. Each case
// parses train and then input on one scratch; the second parse must get
// the verdict, the error text and the nodes of input parsed on a fresh
// scratch, with the guess wrong in the way the case names. Where a case
// parses and a guess could hit, some name of input must also have been taken
// from one.
func TestTrainedGuesses(t *testing.T) {
	wide := &Projection{Elements: map[string]Keep{"a": KeepNode, "ab": KeepText, "abc": KeepAll, "b": KeepNode}, Attributes: map[string]bool{"x": true, "yy": true}}
	docs := benchDocs()
	for _, tc := range []struct {
		name, train, input string
		trainProj, proj    *Projection
		err                string
		noHit              bool // no name of input is one a guess names
	}{
		{name: "a prefix of the name at hand", train: `<r><ab/><ab/></r>`, input: `<r><ab/><abc/><ab></ab><abc/></r>`},
		{name: "followed by a colon", train: `<r><a/><a/></r>`, input: `<r><a/><a:b/><a></a><a:b x="1"/></r>`},
		{name: "a child guess followed by a colon", train: `<r><a/></r>`, input: `<r><a:b/></r>`, proj: wide, noHit: true},
		{name: "at the end of the input", train: `<r><a/><a/></r>`, input: `<r><a/><a`, err: "unexpected EOF"},
		{name: "an attribute at the end of the input", train: `<r><a x="1" y="2"/></r>`, input: `<r><a x="1" y`, err: "unexpected EOF"},
		{name: "an attribute name at hand that is no name", train: `<r><a x="1"/></r>`, input: `<r><a x="1"/><a 1x="2"/></r>`, err: "expected attribute name in element"},
		{name: "a tag name at hand that is no name", train: `<r><a/><a/></r>`, input: `<r><a/><-a/></r>`, err: "expected element name after <"},
		{name: "a local part that is no name", train: `<a:1b><a:1b/><a:1b x:1c="1" x:1c="2"/></a:1b>`,
			input: `<a:1b><1b/></a:1b>`, err: "expected element name after <"},
		{name: "an attribute's local part that is no name", train: `<a:1b><a:1b x:1c="1" x:1c="2"/></a:1b>`,
			input: `<a:1b><a:1b x:1c="1" 1c="2"/></a:1b>`, err: "expected attribute name in element"},
		{name: "wrong for an attribute", train: `<r><a x="1" y="2"/></r>`,
			input: `<r><a x="1" yy="2"/><a z="3" x="4"/><a x="5" y:z="6" y="7"/><a xx="8"/></r>`, proj: wide},
		{name: "learned under one projection, used under another", train: string(docs[0].Data), input: string(docs[0].Data),
			trainProj: scanProjections[3], proj: scanProjections[1]},
		{name: "learned on one document, used on another", train: string(docs[0].Data), input: string(docs[2].Data),
			trainProj: scanProjections[0], proj: scanProjections[2]},
		{name: "learned in full, used projected", train: string(docs[4].Data), input: string(docs[4].Data), proj: scanProjections[2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := new(scratch)
			if _, err := parseWith(s, new(arena), "t.xml", []byte(tc.train), tc.trainProj); err != nil {
				t.Fatal(err)
			}
			trained, errT := parseWith(s, new(arena), "d.xml", []byte(tc.input), tc.proj)
			fresh, errF := parseWith(new(scratch), new(arena), "d.xml", []byte(tc.input), tc.proj)
			if fmt.Sprint(errT) != fmt.Sprint(errF) {
				t.Fatalf("on the trained scratch %v, on a fresh one %v", errT, errF)
			}
			if tc.err != "" {
				if errT == nil || !strings.HasSuffix(errT.Error(), tc.err) {
					t.Fatalf("%v, want %q", errT, tc.err)
				}
				return
			}
			if errT != nil {
				t.Fatal(errT)
			}
			if got, want := dumpBuilt(trained), dumpBuilt(fresh); got != want {
				t.Fatalf("on the trained scratch\n%s\non a fresh one\n%s", got, want)
			}
			if !tc.noHit && trained.NamesHashed() >= fresh.NamesHashed() {
				t.Fatalf("%d names hashed on the trained scratch, %d on a fresh one: no guess was taken", trained.NamesHashed(), fresh.NamesHashed())
			}
		})
	}
}

// On the gate's documents under the serve-scan projections, parsed in turn
// on one scratch as a fetch worker parses them, most names are the one a
// neighbour's guess named.
func TestMostNamesAreGuessed(t *testing.T) {
	s := new(scratch)
	hashed, names := 0, 0
	for i, d := range benchDocs() {
		doc, err := parseWith(s, new(arena), d.URI, d.Data, scanProjections[i%len(scanProjections)])
		if err != nil {
			t.Fatal(err)
		}
		hashed += doc.NamesHashed()
		full, err := Parse(d.URI, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range full.Nodes() {
			if n.Kind != Text {
				names++
			}
		}
	}
	t.Logf("%d of %d names hashed", hashed, names)
	if 4*hashed > names {
		t.Fatalf("%d of %d names hashed, want at most a quarter", hashed, names)
	}
}
