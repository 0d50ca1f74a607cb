package xmark

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func TestGenerateDocDeterministic(t *testing.T) {
	cfg := DefaultConfig(40)
	a := GenerateDoc(cfg, 17)
	b := GenerateDoc(cfg, 17)
	if a.URI != b.URI || !bytes.Equal(a.Data, b.Data) {
		t.Error("GenerateDoc is not deterministic")
	}
	c := GenerateDoc(Config{Seed: 7, Docs: 40, TargetDocBytes: cfg.TargetDocBytes}, 17)
	if bytes.Equal(a.Data, c.Data) {
		t.Error("different seeds produced identical documents")
	}
}

func TestEveryDocParses(t *testing.T) {
	cfg := DefaultConfig(60)
	cfg.TargetDocBytes = 4 << 10
	for i := 0; i < cfg.Docs; i++ {
		d := GenerateDoc(cfg, i)
		doc, err := xmltree.Parse(d.URI, d.Data)
		if err != nil {
			t.Fatalf("doc %d (%s, %s): %v", i, d.Kind, d.Class, err)
		}
		if doc.Root.Label != "site" {
			t.Errorf("doc %d root = %q", i, doc.Root.Label)
		}
	}
}

func TestKindMix(t *testing.T) {
	const n = 200
	counts := map[Kind]int{}
	for i := 0; i < n; i++ {
		counts[KindOf(i)]++
	}
	want := map[Kind]int{ItemDoc: 80, PersonDoc: 40, OpenAuctionDoc: 40, ClosedAuctionDoc: 30, CategoryDoc: 10}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("%s docs = %d, want %d", k, counts[k], w)
		}
		if kindCount(n, k) != w {
			t.Errorf("kindCount(%d, %s) = %d, want %d", n, k, kindCount(n, k), w)
		}
	}
}

func TestKindOrdinal(t *testing.T) {
	// Ordinals must be dense per kind: 0,1,2,... in document order.
	next := map[Kind]int{}
	for i := 0; i < 100; i++ {
		k := KindOf(i)
		if got := kindOrdinal(i); got != next[k] {
			t.Fatalf("kindOrdinal(%d) = %d, want %d", i, got, next[k])
		}
		next[k]++
	}
}

func TestClassFractions(t *testing.T) {
	cfg := DefaultConfig(1000)
	counts := map[Class]int{}
	for i := 0; i < cfg.Docs; i++ {
		counts[ClassOf(cfg, i)]++
	}
	if a := counts[Altered]; a < 150 || a > 250 {
		t.Errorf("altered count = %d, want ~200", a)
	}
	if h := counts[Heterogeneous]; h < 200 || h > 300 {
		t.Errorf("heterogeneous count = %d, want ~250", h)
	}
}

func TestTargetSize(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.TargetDocBytes = 32 << 10
	for i := 0; i < cfg.Docs; i++ {
		d := GenerateDoc(cfg, i)
		if len(d.Data) < cfg.TargetDocBytes/3 || len(d.Data) > cfg.TargetDocBytes*3 {
			t.Errorf("doc %d (%s) size %d far from target %d", i, d.Kind, len(d.Data), cfg.TargetDocBytes)
		}
	}
}

func TestRareNameMarkerExactlyOnce(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.TargetDocBytes = 4 << 10
	inName, anywhere := 0, 0
	for i := 0; i < cfg.Docs; i++ {
		d := GenerateDoc(cfg, i)
		if !bytes.Contains(d.Data, []byte(MarkerRareName)) {
			continue
		}
		anywhere++
		doc, err := xmltree.Parse(d.URI, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range doc.NodesByLabel("name") {
			if xmltree.ContainsWord(n.Value(), MarkerRareName) {
				inName++
			}
		}
	}
	if inName != 1 {
		t.Errorf("%s occurs in %d names, want exactly 1", MarkerRareName, inName)
	}
	if anywhere != 3 {
		t.Errorf("%s occurs in %d docs, want 3 (1 name + 2 noise)", MarkerRareName, anywhere)
	}
}

func TestAlteredDocsChangePathsNotLabels(t *testing.T) {
	cfg := DefaultConfig(400)
	cfg.TargetDocBytes = 4 << 10
	var sawAlteredItem bool
	for i := 0; i < cfg.Docs; i++ {
		if KindOf(i) != ItemDoc {
			continue
		}
		d := GenerateDoc(cfg, i)
		doc, err := xmltree.Parse(d.URI, d.Data)
		if err != nil {
			t.Fatal(err)
		}
		names := doc.NodesByLabel("name")
		if len(names) == 0 {
			t.Fatalf("doc %d has no name elements", i)
		}
		itemNameUnderInfo := false
		for _, n := range names {
			if n.Parent != nil && n.Parent.Label == "info" {
				itemNameUnderInfo = true
			}
		}
		if d.Class == Altered {
			sawAlteredItem = true
			if !itemNameUnderInfo {
				t.Errorf("altered doc %d keeps direct item/name", i)
			}
		} else if itemNameUnderInfo {
			t.Errorf("%s doc %d wraps name in info", d.Class, i)
		}
	}
	if !sawAlteredItem {
		t.Fatal("corpus contains no altered item docs")
	}
}

func TestHeterogeneousDocsDropElements(t *testing.T) {
	cfg := DefaultConfig(400)
	cfg.TargetDocBytes = 4 << 10
	dropped := 0
	checked := 0
	for i := 0; i < cfg.Docs; i++ {
		if KindOf(i) != PersonDoc || ClassOf(cfg, i) != Heterogeneous {
			continue
		}
		checked++
		d := GenerateDoc(cfg, i)
		if !bytes.Contains(d.Data, []byte("<phone>")) {
			dropped++
		}
	}
	if checked == 0 {
		t.Fatal("no heterogeneous person docs in corpus")
	}
	if dropped != checked {
		t.Errorf("heterogeneous persons keep phone in %d/%d docs", checked-dropped, checked)
	}
}

func TestSharedIDSpaces(t *testing.T) {
	if PersonID(0) != "person0" || PersonID(PersonIDSpace) != "person0" {
		t.Error("PersonID does not wrap around its space")
	}
	if ItemID(3) != "item3" || CategoryID(CategoryIDSpace+5) != "category5" {
		t.Error("ID formatting broken")
	}
}

func TestPaintingsCorpus(t *testing.T) {
	docs := Paintings()
	if len(docs) != 2+len(paintingSpecs)+len(museumSpecs) {
		t.Fatalf("corpus size = %d", len(docs))
	}
	uris := map[string]bool{}
	for _, d := range docs {
		if uris[d.URI] {
			t.Errorf("duplicate URI %s", d.URI)
		}
		uris[d.URI] = true
		if _, err := xmltree.Parse(d.URI, d.Data); err != nil {
			t.Errorf("%s: %v", d.URI, err)
		}
	}
	if string(docs[0].Data) != DelacroixXML || string(docs[1].Data) != ManetXML {
		t.Error("Figure 3 documents not verbatim")
	}
	// q5 needs museums referencing Delacroix paintings.
	foundRef := false
	for _, d := range docs {
		if strings.HasPrefix(d.URI, "museum-") && bytes.Contains(d.Data, []byte(`"1830-1"`)) {
			foundRef = true
		}
	}
	if !foundRef {
		t.Error("no museum references a Delacroix painting")
	}
}

func TestGenerateMatchesGenerateDoc(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.TargetDocBytes = 2 << 10
	docs := Generate(cfg)
	if len(docs) != 8 {
		t.Fatalf("Generate returned %d docs", len(docs))
	}
	for i, d := range docs {
		if single := GenerateDoc(cfg, i); !bytes.Equal(single.Data, d.Data) {
			t.Errorf("doc %d differs between Generate and GenerateDoc", i)
		}
	}
}
