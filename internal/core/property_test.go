package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/xmark"
)

// Property-based differential tests over seeded random corpora and random
// tree-pattern queries. Strategy agreement: LU, LUP, LUI and 2LUPI index
// different things, but every query must get the same answer from all four —
// the index only prunes the documents fetched, never the result.

// propertyLabels is the XMark label alphabet the random queries draw from
// (including one label that never occurs, so empty answers are exercised).
var propertyLabels = []string{
	"site", "regions", "item", "name", "location", "payment", "quantity",
	"description", "parlist", "listitem", "text", "mailbox", "mail",
	"from", "to", "person", "profile", "education", "age", "address",
	"city", "open_auction", "bidder", "increase", "type", "seller",
	"closed_auction", "price", "annotation", "nonexistent",
}

var propertyAttrs = []string{"id", "person", "category", "income"}

// randomQueryText builds a small random tree-pattern query and renders it
// to the surface syntax RunQueryOn parses.
func randomQueryText(t *testing.T, rng *rand.Rand) string {
	t.Helper()
	var build func(depth int, axis pattern.Axis, attrAllowed bool) *pattern.Node
	build = func(depth int, axis pattern.Axis, attrAllowed bool) *pattern.Node {
		n := &pattern.Node{Axis: axis}
		if attrAllowed && rng.Intn(6) == 0 {
			n.IsAttr = true
			n.Label = propertyAttrs[rng.Intn(len(propertyAttrs))]
		} else {
			n.Label = propertyLabels[rng.Intn(len(propertyLabels))]
		}
		switch rng.Intn(8) {
		case 0:
			n.Val = true
		case 1:
			if !n.IsAttr {
				n.Cont = true
			} else {
				n.Val = true
			}
		case 2:
			n.Pred = pattern.Pred{Kind: pattern.Contains, Const: "Zanzibar"}
		case 3:
			n.Pred = pattern.Pred{Kind: pattern.Eq, Const: "1"}
		case 4:
			n.Pred = pattern.Pred{Kind: pattern.Range, Lo: "1", Hi: "3000"}
		}
		if !n.IsAttr && depth < 3 {
			kids := rng.Intn(3)
			for i := 0; i < kids; i++ {
				axis := pattern.Child
				if rng.Intn(2) == 0 {
					axis = pattern.Descendant
				}
				c := build(depth+1, axis, true)
				c.Parent = n
				n.Children = append(n.Children, c)
			}
		}
		return n
	}
	q := &pattern.Query{Patterns: []*pattern.Tree{{Root: build(0, pattern.Descendant, false)}}}
	if err := q.Validate(); err != nil {
		t.Fatalf("generated invalid pattern: %v", err)
	}
	text := q.String()
	if _, err := pattern.Parse(text); err != nil {
		t.Fatalf("rendered query %q does not reparse: %v", text, err)
	}
	return text
}

func propertyCorpus(seed int64) []xmark.Doc {
	cfg := xmark.DefaultConfig(12)
	cfg.Seed = seed
	cfg.TargetDocBytes = 4 << 10
	return xmark.Generate(cfg)
}

// buildWarehouse provisions a warehouse, stores the corpus and indexes it
// on a two-instance fleet with the synchronous deterministic driver.
func buildWarehouse(t *testing.T, cfg Config, docs []xmark.Doc) (*Warehouse, IndexReport) {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var uris []string
	for _, d := range docs {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 2)
	rep, err := w.IndexCorpusOn(fleet, uris)
	if err != nil {
		t.Fatal(err)
	}
	return w, rep
}

// answerRows runs one query and returns its sorted rendered rows.
func answerRows(t *testing.T, w *Warehouse, in *ec2.Instance, text string) ([]string, QueryStats) {
	t.Helper()
	res, qs, err := w.RunQueryOn(in, text, true)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprintf("%s|%v", r.URI, r.Cols)
	}
	sort.Strings(rows)
	return rows, qs
}

// TestStrategiesAgreeOnRandomQueries: all four indexing strategies answer
// every random query identically over the same random corpus.
func TestStrategiesAgreeOnRandomQueries(t *testing.T) {
	docs := propertyCorpus(20260806)
	strategies := index.All()
	ws := make([]*Warehouse, len(strategies))
	ins := make([]*ec2.Instance, len(strategies))
	for i, s := range strategies {
		ws[i], _ = buildWarehouse(t, Config{Strategy: s}, docs)
		ins[i] = ec2.Launch(ws[i].ledger, ec2.XL)
	}

	rng := rand.New(rand.NewSource(42))
	nonEmpty := 0
	for trial := 0; trial < 30; trial++ {
		text := randomQueryText(t, rng)
		want, _ := answerRows(t, ws[0], ins[0], text)
		if len(want) > 0 {
			nonEmpty++
		}
		for i := 1; i < len(ws); i++ {
			got, _ := answerRows(t, ws[i], ins[i], text)
			if len(got) != len(want) {
				t.Errorf("trial %d %q: %s returned %d rows, %s %d",
					trial, text, strategies[i].Name(), len(got), strategies[0].Name(), len(want))
				continue
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("trial %d %q row %d: %s %q, %s %q",
						trial, text, j, strategies[i].Name(), got[j], strategies[0].Name(), want[j])
					break
				}
			}
		}
	}
	if nonEmpty < 5 {
		t.Fatalf("only %d of 30 random queries matched anything; generator too hostile", nonEmpty)
	}
}
