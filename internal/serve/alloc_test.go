package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// gateAnswerBytes bounds the bytes one scan query allocates from its
// submission to the last byte of its POST /query body: 1.5 times the
// 114,000 measured (median of ten runs, Go 1.24, linux/amd64) once a
// released document gave its text back to the next parse and the rows
// copied what they keep into the plan's memory (209,000 before; 570,000
// before the rows, joins, result object and body lived in recycled memory).
// What is left is mostly per document fetched (its header and its fetch)
// and one copy of the result object, which the file store keeps; a
// per-row, per-join or per-text make that slips back in fails.
const gateAnswerBytes = 171_000

// selectiveAnswerBytes is the same bound on a selective query: 1.5 times
// the 13,850 measured the same way (20,400-21,200 before the text was
// recycled).
const selectiveAnswerBytes = 20_800

// A query after two collections may allocate at most this much more than
// one after none, on the scan and on the selective queries. A collection
// empties the parser's pools and nothing else: the warehouse, the store and
// the serve slots own the rest of what a query reuses. When sync.Pools held
// it all, two collections added 1,147 KB to a scan query and 247 KB to a
// selective one.
const (
	collectedScanBytes      = 300 << 10
	collectedSelectiveBytes = 75 << 10
)

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestGateAnswerAllocations holds the gateable benchmark's serve-scan
// queries (q6, q7, q9 and q10, 80-160 candidate documents each) to
// gateAnswerBytes a query, and to collectedScanBytes more after two
// collections.
func TestGateAnswerAllocations(t *testing.T) {
	all := workload.XMark()
	checkAnswerBytes(t, []string{all[5].Text, all[6].Text, all[8].Text, all[9].Text}, 10, gateAnswerBytes, collectedScanBytes)
}

// checkAnswerBytes runs queries on the gateable benchmark's corpus (400
// XMark documents of 16 KB, seed 42, bulk-loaded under 2LUPI in one commit)
// through a warehouse backend with one query processor, which answers each
// with answerQuery, and writes each answer with the daemon's body writer in
// one buffer, as a serve slot does. After a round that warms the memory it
// measures rounds more and holds the bytes allocated per query to bound;
// then it measures the rounds again with two collections before every
// query, and holds what a query allocates more to collected.
func checkAnswerBytes(t *testing.T, queries []string, rounds int, bound, collected float64) {
	if raceEnabled {
		t.Skip("the race detector makes xmltree's arenaPool and scratchPool drop what is put back")
	}
	cfg := xmark.DefaultConfig(400)
	cfg.Seed = 42
	cfg.TargetDocBytes = 16 << 10
	// Two processors and two fetch workers, whatever the machine: a pool
	// keeps what is put back per processor, so how much a warm pool saves
	// depends on how many there are.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, err := core.New(core.Config{Strategy: index.TwoLUPI, Seed: 1, BulkLoad: true, QueryWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Docs; i++ {
		d := xmark.GenerateDoc(cfg, i)
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.IndexCorpusOn(ec2.LaunchFleet(w.Ledger(), ec2.Large, 8), nil); err != nil {
		t.Fatal(err)
	}
	b := NewWarehouseBackend(w, 1, ec2.XL, core.WorkerOptions{})
	defer b.Close()
	dw := discardWriter{h: http.Header{}}
	var buf []byte
	rows := 0
	answer := func(q string) {
		start := time.Now()
		out, err := b.Do(q, true, time.Minute)
		if err == nil {
			err = out.Err
		}
		if err == nil {
			err = checkResultObject(out)
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = writeAnswer(dw, buf, out, time.Since(start))
		rows += out.Rows
	}
	for _, q := range queries {
		answer(q)
	}
	measure := func(collect bool) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows = 0
		for i := 0; i < rounds; i++ {
			for _, q := range queries {
				if collect {
					runtime.GC()
					runtime.GC()
				}
				answer(q)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(queries))
	}
	perQuery := measure(false)
	t.Logf("%.0f bytes a query, %d rows a round", perQuery, rows/rounds)
	if perQuery > bound {
		t.Errorf("%.0f bytes a query, want at most %.0f", perQuery, bound)
	}
	more := measure(true) - perQuery
	t.Logf("%.0f bytes a query more after two collections", more)
	if more > collected {
		t.Errorf("a query after two collections allocates %.0f bytes more, want at most %.0f", more, collected)
	}
}

// gateBuildBytes bounds the bytes a sliced bulk build allocates per
// document: 1.2 times the 98,000 measured (median of ten runs, Go 1.24,
// linux/amd64, two cores). The measured build is a new warehouse's, which
// shares no chunk with the warm-up build's, so its first commit allocates
// the chunks that its later commits reuse.
const gateBuildBytes = 117_600

// TestGateBuildAllocations builds the gateable benchmark's index-build shape
// on its corpus (XMark documents of 16 KB, seed 42, 2LUPI, bulk-loaded on
// eight large instances): 120 documents submitted and indexed 40 at a time
// into one new warehouse. A first build warms the pools; the second is
// measured, from core.New to its last commit, and held to gateBuildBytes a
// document.
func TestGateBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes xmltree's arenaPool and scratchPool and index's extractPool, collectorPool and packTables drop what is put back")
	}
	cfg := xmark.DefaultConfig(120)
	cfg.Seed = 42
	cfg.TargetDocBytes = 16 << 10
	docs := xmark.Generate(cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	build := func() {
		w, err := core.New(core.Config{Strategy: index.TwoLUPI, Seed: 1, BulkLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, 8)
		for rest := docs; len(rest) > 0; rest = rest[min(40, len(rest)):] {
			for _, d := range rest[:min(40, len(rest))] {
				if err := w.SubmitDocument(d.URI, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.IndexCorpusOn(fleet, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.IndexItems(); got == 0 {
			t.Fatal("the build wrote no index item")
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	perDoc := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(docs))
	t.Logf("%.0f bytes a document", perDoc)
	if perDoc > gateBuildBytes {
		t.Errorf("%.0f bytes a document, want at most %d", perDoc, gateBuildBytes)
	}
}

// TestSelectiveAnswerAllocations holds the gateable benchmark's
// serve-selective queries (q1-q5, 1-6 candidate documents each) to
// selectiveAnswerBytes a query, and to collectedSelectiveBytes more after
// two collections.
func TestSelectiveAnswerAllocations(t *testing.T) {
	var queries []string
	for _, q := range workload.XMark()[:5] {
		queries = append(queries, q.Text)
	}
	checkAnswerBytes(t, queries, 40, selectiveAnswerBytes, collectedSelectiveBytes)
}
