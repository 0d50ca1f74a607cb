package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pattern"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// randomJoinQuery is one random pattern, or two joined on variables drawn
// from their nodes: every third node binds a variable, so some variables
// share a node's val column and the others are hidden columns, and one or
// two conditions link the variables, across the patterns or within one.
func randomJoinQuery(rng *rand.Rand) *pattern.Query {
	q := &pattern.Query{}
	var vars [][]string // per pattern
	for i := 0; i < 1+rng.Intn(2); i++ {
		tr := randomPattern(rng)
		var vs []string
		tr.Walk(func(n *pattern.Node) {
			if rng.Intn(3) == 0 || n == tr.Root {
				n.Var = fmt.Sprintf("v%d_%d", i, len(vs))
				vs = append(vs, n.Var)
			}
		})
		q.Patterns = append(q.Patterns, tr)
		vars = append(vars, vs)
	}
	pick := func(vs []string) string { return vs[rng.Intn(len(vs))] }
	if len(q.Patterns) == 2 {
		q.Joins = append(q.Joins, pattern.JoinCond{A: pick(vars[0]), B: pick(vars[1])})
	}
	if rng.Intn(3) == 0 {
		vs := vars[rng.Intn(len(vars))]
		q.Joins = append(q.Joins, pattern.JoinCond{A: pick(vs), B: pick(vs)})
	}
	return q
}

// What the query processor does: each document parsed under the query's
// projection, every pattern whose set names it evaluated on it, the document
// released before the next is parsed, and Finish over the rows. The result
// must be EvalQueryOnDocSets' on the full documents, rows in the same order:
// the workload's queries (value joins, hidden join columns) and random ones
// with joins, each pattern over its own subset of the documents.
func TestPlanPerDocumentMatchesDocSets(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	type source struct {
		uri  string
		data []byte
		full *xmltree.Document
	}
	var docs []source
	add := func(uri string, data []byte) {
		full, err := xmltree.Parse(uri, data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, source{uri, data, full})
	}
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 3 << 10
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		add(gd.URI, gd.Data)
	}
	for i, src := range shapedDocs {
		add(fmt.Sprintf("shaped-%d.xml", i), []byte(src))
	}

	var queries []*pattern.Query
	for _, wq := range workload.XMark() {
		queries = append(queries, wq.Parse())
	}
	for len(queries) < 400 {
		queries = append(queries, randomJoinQuery(rng))
	}
	joinedRows, hidden := 0, 0
	for qi, q := range queries {
		plan, err := NewPlan(q, nil)
		if err != nil {
			t.Fatalf("query %d %s: %v", qi, q, err)
		}
		// Each pattern's set: a random subset of the documents, in order
		// (all of them for the workload's queries).
		fullSets := make([][]*xmltree.Document, len(q.Patterns))
		setOf := make([][]int, len(q.Patterns))
		for pi := range q.Patterns {
			for di, d := range docs {
				if qi < len(workload.XMark()) || rng.Intn(3) > 0 {
					fullSets[pi] = append(fullSets[pi], d.full)
					setOf[pi] = append(setOf[pi], di)
				}
			}
		}
		want, err := EvalQueryOnDocSets(q, fullSets)
		if err != nil {
			t.Fatalf("query %d %s: %v", qi, q, err)
		}

		rows := make([][][]Row, len(q.Patterns))
		for pi := range rows {
			rows[pi] = make([][]Row, len(setOf[pi]))
		}
		proj := ProjectionOf(q)
		for di, d := range docs {
			doc, err := xmltree.ParseProjected(d.uri, d.data, proj)
			if err != nil {
				t.Fatal(err)
			}
			for pi, set := range setOf {
				for j, dj := range set {
					if dj == di {
						rows[pi][j] = plan.EvalPattern(pi, doc)
					}
				}
			}
			doc.Release()
		}
		got, err := plan.Finish(rows)
		if err != nil {
			t.Fatalf("query %d %s: %v", qi, q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d %s: per document then Finish\n%v\nEvalQueryOnDocSets\n%v", qi, q, got, want)
		}
		if len(q.Joins) > 0 && len(got.Rows) > 0 {
			joinedRows++
		}
		if plan.visible < plan.width && len(got.Rows) > 0 {
			hidden++
		}
	}
	if joinedRows < 20 || hidden < 20 {
		t.Fatalf("%d queries with joins and %d with hidden columns gave rows; generator too hostile", joinedRows, hidden)
	}
	if p, err := NewPlan(queries[0], nil); err != nil {
		t.Fatal(err)
	} else if _, err := p.Finish(nil); err == nil {
		t.Fatal("Finish took the rows of no pattern for a query of one")
	}
}

// EvalQueryOnDocSets' rows do not depend on how many goroutines claim its
// tasks: on the workload's queries over generated documents, every worker
// count, more than there are tasks included, gives the one-worker result.
func TestEvalQueryOnDocSetsSameAtEveryWorkerCount(t *testing.T) {
	cfg := xmark.DefaultConfig(12)
	cfg.TargetDocBytes = 3 << 10
	var docs []*xmltree.Document
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	rows := 0
	for _, wq := range workload.XMark() {
		q := wq.Parse()
		sets := make([][]*xmltree.Document, len(q.Patterns))
		for pi := range sets {
			sets[pi] = docs[pi%2:] // the patterns' sets differ in length
		}
		want, err := EvalQueryOnDocSets(q, sets, 1)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		rows += len(want.Rows)
		for _, workers := range []int{2, 3, 8, 1000} {
			got, err := EvalQueryOnDocSets(q, sets, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", wq.Name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d workers give\n%v\none gives\n%v", wq.Name, workers, got, want)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no query has rows")
	}
}
