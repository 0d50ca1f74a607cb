package engine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/pattern"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// releaseSource is a document of the release tests: its bytes, to parse
// under each query's projection, and its full tree.
type releaseSource struct {
	uri  string
	data []byte
	full *xmltree.Document
}

func releaseSources(t *testing.T, docBytes int) []releaseSource {
	t.Helper()
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = docBytes
	var docs []releaseSource
	add := func(uri string, data []byte) {
		full, err := xmltree.Parse(uri, data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, releaseSource{uri, data, full})
	}
	for _, d := range xmark.Generate(cfg) {
		add(d.URI, d.Data)
	}
	for i, src := range shapedDocs {
		add(fmt.Sprintf("shaped-%d.xml", i), []byte(src))
	}
	return docs
}

// evalReleased is the query processor's path: a plan in mem, every document
// parsed under the query's projection, each pattern evaluated on it on one
// of four goroutines, the document released, then Finish. It returns the
// plan unreleased with the result.
func evalReleased(t *testing.T, q *pattern.Query, docs []releaseSource, mem *Memory) (*Plan, *Result) {
	t.Helper()
	plan, err := NewPlan(q, mem)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows := make([][][]Row, len(q.Patterns))
	for pi := range rows {
		rows[pi] = make([][]Row, len(docs))
	}
	proj := ProjectionOf(q)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for di := w; di < len(docs); di += 4 {
				doc, err := xmltree.ParseProjected(docs[di].uri, docs[di].data, proj)
				if err != nil {
					t.Error(err)
					return
				}
				for pi := range q.Patterns {
					rows[pi][di] = plan.EvalPattern(pi, doc)
				}
				doc.Release()
			}
		}(w)
	}
	wg.Wait()
	res, err := plan.Finish(rows)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return plan, res
}

func encode(t *testing.T, res *Result) string {
	t.Helper()
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// Plans release their row memory, and later plans in the same Memory reuse
// it: query after query, the result encoded before Release must be
// EvalQueryOnDocSets' on the full documents, byte for byte. Two plans are
// alive at a time, each in a Memory of its own, the first released (twice)
// before the second is encoded, so that one plan's release that reached the
// other's memory shows. The queries are the workload's and random ones of
// one or two patterns with value joins.
func TestReleasedPlansMatchDocSets(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	docs := releaseSources(t, 3<<10)
	full := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		full[i] = d.full
	}
	var queries []*pattern.Query
	for _, wq := range workload.XMark() {
		queries = append(queries, wq.Parse())
	}
	for len(queries) < 400 {
		if rng.Intn(2) == 0 {
			queries = append(queries, &pattern.Query{Patterns: []*pattern.Tree{randomPattern(rng)}})
		} else {
			queries = append(queries, randomJoinQuery(rng))
		}
	}
	withRows := 0
	var mems [2]Memory
	for qi := 0; qi < len(queries); qi += 2 {
		var plans [2]*Plan
		var got [2]*Result
		for k := range plans {
			plans[k], got[k] = evalReleased(t, queries[qi+k], docs, &mems[k])
		}
		for k, q := range queries[qi : qi+2] {
			sets := make([][]*xmltree.Document, len(q.Patterns))
			for pi := range sets {
				sets[pi] = full
			}
			want, err := EvalQueryOnDocSets(q, sets)
			if err != nil {
				t.Fatalf("query %d %s: %v", qi+k, q, err)
			}
			if g, w := encode(t, got[k]), encode(t, want); g != w {
				t.Fatalf("query %d %s: evaluated per document and released\n%s\nEvalQueryOnDocSets\n%s", qi+k, q, g, w)
			}
			if len(got[k].Rows) > 0 {
				withRows++
			}
			plans[k].Release()
			plans[k].Release()
		}
	}
	if withRows < 50 {
		t.Fatalf("%d of %d queries gave rows; generator too hostile", withRows, len(queries))
	}
}

// A Result whose plan is never released keeps its rows however many plans
// run and release after it.
func TestUnreleasedResultOutlivesOtherPlans(t *testing.T) {
	docs := releaseSources(t, 3<<10)
	queries := workload.XMark()
	_, kept := evalReleased(t, queries[5].Parse(), docs, nil)
	if len(kept.Rows) == 0 {
		t.Fatal("q6 gave no rows")
	}
	want := encode(t, kept)
	var mem Memory
	for i := 0; i < 100; i++ {
		plan, _ := evalReleased(t, queries[i%len(queries)].Parse(), docs[:4], &mem)
		plan.Release()
	}
	if got := encode(t, kept); got != want {
		t.Fatalf("after 100 released plans the kept result reads\n%s\nwas\n%s", got, want)
	}
}

// Once a Memory has served a few plans, evaluating q6 on the gate's 20
// documents in it, then Finish and Release, allocates a quarter at most of
// what the same evaluation allocated when every EvalPattern had a matcher of
// its own and Finish a fresh concatenation: 52,430 bytes in 91 allocations
// (Go 1.24, linux/amd64). What is left is the run's own table of rows and
// the Result: the rest of Finish lies in the plan's recycled memory.
func TestEvalAllocations(t *testing.T) {
	const parentBytes = 52_430
	q := workload.XMark()[5].Parse()
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 16 << 10
	proj := ProjectionOf(q)
	var docs []*xmltree.Document
	for _, d := range xmark.Generate(cfg) {
		pd, err := xmltree.ParseProjected(d.URI, d.Data, proj)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, pd)
	}
	var mem Memory
	run := func() int {
		plan, err := NewPlan(q, &mem)
		if err != nil {
			t.Fatal(err)
		}
		rows := [][][]Row{make([][]Row, len(docs))}
		for i, d := range docs {
			rows[0][i] = plan.EvalPattern(0, d)
		}
		res, err := plan.Finish(rows)
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Rows)
		plan.Release()
		return n
	}
	for i := 0; i < 3; i++ {
		run()
	}
	// What NewPlan allocates is not the evaluation's; take it off.
	var before, after runtime.MemStats
	const runs = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewPlan(q, &mem); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	planBytes := (after.TotalAlloc - before.TotalAlloc) / runs
	rowsOut := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rowsOut = run()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc-before.TotalAlloc)/runs - planBytes
	t.Logf("%d rows: %d bytes an evaluation beside the plan's %d", rowsOut, got, planBytes)
	if rowsOut != 174 {
		t.Fatalf("q6 gave %d rows on the gate's documents, want the 174 the bound was measured with", rowsOut)
	}
	if 4*got > parentBytes {
		t.Fatalf("an evaluation allocates %d bytes, want at most a quarter of %d", got, parentBytes)
	}
}
