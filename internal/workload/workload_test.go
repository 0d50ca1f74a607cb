package workload

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func TestAllQueriesParse(t *testing.T) {
	for _, q := range append(XMark(), Paintings()...) {
		p, err := pattern.Parse(q.Text)
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			continue
		}
		if p.String() == "" {
			t.Errorf("%s: empty rendering", q.Name)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	qs := XMark()
	if len(qs) != 10 {
		t.Fatalf("workload size = %d", len(qs))
	}
	// The last three feature value joins; the first seven do not.
	for i, q := range qs {
		p := q.Parse()
		if i < 7 && len(p.Joins) != 0 {
			t.Errorf("%s has unexpected joins", q.Name)
		}
		if i >= 7 && len(p.Joins) == 0 {
			t.Errorf("%s lacks a value join", q.Name)
		}
	}
	// Queries average around ten nodes.
	var nodes int
	for _, q := range qs {
		p := q.Parse()
		for _, tr := range p.Patterns {
			tr.Walk(func(*pattern.Node) { nodes++ })
		}
	}
	if avg := float64(nodes) / float64(len(qs)); avg < 5 || avg > 14 {
		t.Errorf("average node count = %.1f, want ~10", avg)
	}
}

func TestEveryQueryHasResultsOnCorpus(t *testing.T) {
	cfg := xmark.DefaultConfig(400)
	cfg.TargetDocBytes = 4 << 10
	var docs []*xmltree.Document
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	for _, q := range XMark() {
		res, err := engine.EvalQueryOnDocs(q.Parse(), docs)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s returns no results on the default corpus", q.Name)
		}
	}
	// q1 is the point query: very few matching documents.
	res, _ := engine.EvalQueryOnDocs(XMark()[0].Parse(), docs)
	uris := map[string]bool{}
	for _, r := range res.Rows {
		uris[r.URI] = true
	}
	if len(uris) != 1 {
		t.Errorf("q1 matches %d documents, want 1", len(uris))
	}
}

func TestPaintingsQueriesOnPaintingsCorpus(t *testing.T) {
	var docs []*xmltree.Document
	for _, gd := range xmark.Paintings() {
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	for _, q := range Paintings() {
		res, err := engine.EvalQueryOnDocs(q.Parse(), docs)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s returns no results", q.Name)
		}
	}
}
