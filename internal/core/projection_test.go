package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// The query path parses every candidate document under the query's
// projection (fetchDocuments). These tests hold each way into it — the
// indexed look-up, the index-less scan, and a pinned view that reads
// superseded document versions from the retained snapshots — to
// engine.EvalQueryOnDocs over the same documents parsed whole, row for row
// and in order, on the sequential and the parallel pipeline.

// fullTreeRows evaluates text over docs parsed whole, in URI order.
func fullTreeRows(t *testing.T, text string, docs []xmark.Doc) []engine.Row {
	t.Helper()
	q, err := ParseQueryText(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	parsed := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		if parsed[i], err = xmltree.Parse(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	res, err := engine.EvalQueryOnDocs(q, parsed)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return res.Rows
}

func sameRows(t *testing.T, what, text string, got *engine.Result, err error, want []engine.Row) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s %s: %v", what, text, err)
	}
	if len(got.Rows) != len(want) || len(want) > 0 && !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("%s %s: %d rows, evaluation over the full trees has %d\n%v\n%v", what, text, len(got.Rows), len(want), got.Rows, want)
	}
}

// projectionCorpora returns the two corpora of these tests with their
// queries, the documents in URI order: XMark documents, enough of them for
// nine of the ten workload queries to have rows, and the paintings.
func projectionCorpora() []projectionCase {
	byURI := func(docs []xmark.Doc) []xmark.Doc {
		sort.Slice(docs, func(i, j int) bool { return docs[i].URI < docs[j].URI })
		return docs
	}
	cfg := xmark.DefaultConfig(120)
	cfg.TargetDocBytes = 4 << 10
	xm, paintings := projectionCase{name: "xmark", docs: byURI(xmark.Generate(cfg))}, projectionCase{name: "paintings", docs: byURI(xmark.Paintings())}
	for _, q := range workload.XMark() {
		xm.queries = append(xm.queries, q.Text)
	}
	for _, q := range workload.XMarkXQuery() {
		xm.queries = append(xm.queries, q.Text)
	}
	for _, q := range workload.Paintings() {
		paintings.queries = append(paintings.queries, q.Text)
	}
	return []projectionCase{xm, paintings}
}

type projectionCase struct {
	name    string
	docs    []xmark.Doc
	queries []string
}

func TestProjectedQueryPathsMatchFullTreeEvaluation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, c := range projectionCorpora() {
			w, _ := buildWarehouse(t, Config{Strategy: index.TwoLUPI, QueryWorkers: workers}, c.docs)
			in := ec2.Launch(w.ledger, ec2.XL)
			nonEmpty := 0
			for _, text := range c.queries {
				want := fullTreeRows(t, text, c.docs)
				if len(want) > 0 {
					nonEmpty++
				}
				got, _, err := w.RunQueryOn(in, text, true)
				sameRows(t, c.name+" indexed", text, got, err, want)
				got, _, err = w.RunQueryOn(in, text, false)
				sameRows(t, c.name+" index-less", text, got, err, want)
			}
			if nonEmpty < len(c.queries)*2/3 {
				t.Fatalf("%s: only %d of %d queries have rows; the corpus proves too little", c.name, nonEmpty, len(c.queries))
			}
		}
	}
}

// A view pinned before an update reads the superseded versions of the
// updated documents from the snapshots the corpus retains, not from the file
// store; those bytes go through the projected parse too.
func TestProjectedQueryOnPinnedViewMatchesFullTreeEvaluation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, c := range projectionCorpora() {
			w, err := New(Config{Strategy: index.TwoLUPI, MutableCorpus: true, QueryWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			in := ec2.Launch(w.ledger, ec2.XL)
			content := map[string][]byte{}
			for _, d := range c.docs {
				if err := w.UpdateDocument(in, d.URI, d.Data); err != nil {
					t.Fatal(err)
				}
				content[d.URI] = d.Data
			}
			pinned := docsFromContent(content)
			view := w.Corpus().Pin()
			// Supersede every second document with its neighbour's content
			// under a revision stamp, and remove every fifth.
			for i, d := range c.docs {
				switch {
				case i%5 == 4:
					if err := w.RemoveDocument(in, d.URI); err != nil {
						t.Fatal(err)
					}
					delete(content, d.URI)
				case i%2 == 0:
					data := stampDoc(t, c.docs[(i+1)%len(c.docs)].Data, i+2)
					if err := w.UpdateDocument(in, d.URI, data); err != nil {
						t.Fatal(err)
					}
					content[d.URI] = data
				}
			}
			current := docsFromContent(content)
			differ := 0
			for _, text := range c.queries {
				atPin, now := fullTreeRows(t, text, pinned), fullTreeRows(t, text, current)
				if !reflect.DeepEqual(atPin, now) {
					differ++
				}
				got, _, err := w.RunQueryOnView(in, text, view)
				sameRows(t, c.name+" pinned view", text, got, err, atPin)
				got, _, err = w.RunQueryOn(in, text, true)
				sameRows(t, c.name+" current version", text, got, err, now)
			}
			if differ < len(c.queries)/3 {
				t.Fatalf("%s: only %d of %d queries answer differently at the pin; the updates prove too little", c.name, differ, len(c.queries))
			}
			view.Release()
		}
	}
}
