package core

import (
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
)

// A compressed-paths warehouse answers identically to a plain one and
// stores a smaller LUP index.
func TestCompressPathsWarehouse(t *testing.T) {
	build := func(compress bool) *Warehouse {
		w, err := New(Config{Strategy: index.LUP, CompressPaths: compress})
		if err != nil {
			t.Fatal(err)
		}
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
		loadPaintings(t, w, fleet)
		return w
	}
	plain := build(false)
	comp := build(true)

	pr, _ := plain.IndexBytes()
	cr, _ := comp.IndexBytes()
	if cr >= pr {
		t.Errorf("compressed index %d bytes >= plain %d", cr, pr)
	}

	const q = `//painting[/name~"Lion", /painter[/name[/last{val}]]]`
	for _, w := range []*Warehouse{plain, comp} {
		in := ec2.Launch(w.ledger, ec2.Large)
		res, _, err := w.RunQueryOn(in, q, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Errorf("rows = %d, want 2", len(res.Rows))
		}
	}

	// Removal works on compressed indexes too: the fold deletes the
	// document's compressed-path items.
	w, in := mutablePaintings(t, Config{Strategy: index.LUP, CompressPaths: true})
	items := w.IndexItems()
	if err := w.RemoveDocument(in, "delacroix.xml"); err != nil {
		t.Fatal(err)
	}
	compactFully(t, w, in)
	if w.IndexItems() >= items {
		t.Error("index did not shrink")
	}
	res, _, err := w.RunQueryOn(in, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows after removal = %d, want 1", len(res.Rows))
	}
}
