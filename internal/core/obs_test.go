package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmark"
)

func obsTestCorpus() []xmark.Doc {
	cfg := xmark.DefaultConfig(10)
	cfg.Seed = 7
	cfg.TargetDocBytes = 4 << 10
	return xmark.Generate(cfg)
}

// TestObsDifferential is the determinism contract of the observability
// subsystem: a traced run issues no service calls of its own and draws no
// randomness, so indexing and querying the same corpus with tracing on must
// leave the warehouse byte-identical to an untraced run — same metered
// bill, same index store contents, same answers to all ten workload
// queries.
func TestObsDifferential(t *testing.T) {
	docs := obsTestCorpus()

	plain, pr := indexCorpus(t, Config{Strategy: index.TwoLUPI}, 2, docs)
	traced, tr := indexCorpus(t, Config{Strategy: index.TwoLUPI, Trace: true}, 2, docs)
	if pr != tr {
		t.Errorf("index reports differ: plain %+v, traced %+v", pr, tr)
	}

	plainRows, tracedRows := runWorkload(t, plain), runWorkload(t, traced)
	for name, want := range plainRows {
		got := tracedRows[name]
		if len(got) != len(want) {
			t.Errorf("%s: plain %d rows, traced %d", name, len(want), len(got))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s row %d: plain %q, traced %q", name, i, want[i], got[i])
				break
			}
		}
	}

	// The bill must match to the byte: tracing reads the ledger but never
	// writes it.
	pu, tu := plain.Ledger().Snapshot().String(), traced.Ledger().Snapshot().String()
	if pu != tu {
		t.Errorf("metered usage differs:\nplain:\n%s\ntraced:\n%s", pu, tu)
	}

	pd, td := dumpStore(t, plain), dumpStore(t, traced)
	for _, tbl := range plain.Strategy.Tables() {
		if len(pd[tbl]) != len(td[tbl]) {
			t.Errorf("%s: plain %d items, traced %d", tbl, len(pd[tbl]), len(td[tbl]))
			continue
		}
		for i := range pd[tbl] {
			if itemLine(pd[tbl][i]) != itemLine(td[tbl][i]) {
				t.Errorf("%s item %d differs under tracing", tbl, i)
				break
			}
		}
	}

	if plain.Tracer() != nil {
		t.Error("untraced warehouse has a tracer")
	}
	if traced.Tracer() == nil || len(traced.Tracer().Spans()) == 0 {
		t.Error("traced warehouse recorded no spans")
	}
}

// TestTracedSpanTree checks the shape of one query's span tree: a query
// root spanning the whole round trip, submit/process/fetch children, the
// look-up pipeline nested under process, billed calls attributed to the
// index read, and modeled durations that are stable across identical runs.
func TestTracedSpanTree(t *testing.T) {
	docs := obsTestCorpus()

	var w *Warehouse
	trace := func() (spans []obs.SpanRecord, id string) {
		w, _ = indexCorpus(t, Config{Strategy: index.TwoLUPI, Trace: true}, 2, docs)
		in := ec2.Launch(w.ledger, ec2.XL)
		_, st, err := w.RunQueryOn(in, workload.XMark()[2].Text, true)
		if err != nil {
			t.Fatal(err)
		}
		return w.Tracer().QuerySpans(st.ID), st.ID
	}
	spans, id := trace()

	// The driver never long-polls, so it bills no empty receive; a live
	// worker with nothing to do bills one per poll, and the registry counts
	// them.
	empty := w.Registry().Counter("sqs.receive.empty")
	if n := empty.Value(); n != 0 {
		t.Errorf("sqs.receive.empty = %d after a driver-only run, want 0", n)
	}
	idle := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{Poll: 5 * time.Millisecond})
	for deadline := time.Now().Add(5 * time.Second); empty.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	idle.Stop()
	if empty.Value() == 0 {
		t.Error("sqs.receive.empty = 0 after an idle worker polled")
	}
	if len(spans) == 0 {
		t.Fatalf("no spans recorded for query %s", id)
	}

	byName := map[string]obs.SpanRecord{}
	byID := map[int64]obs.SpanRecord{}
	for _, r := range spans {
		byName[r.Name] = r
		byID[r.ID] = r
	}
	root, ok := byName[obs.SpanQuery]
	if !ok || root.Parent != 0 {
		t.Fatalf("no root %s span (got %v)", obs.SpanQuery, spans)
	}
	if root.Attr("id") != id {
		t.Errorf("root id attr = %q, want %q", root.Attr("id"), id)
	}
	wantUnder := map[string]string{
		obs.SpanSubmitQuery:  obs.SpanQuery,
		obs.SpanProcess:      obs.SpanQuery,
		obs.SpanFetchResults: obs.SpanQuery,
		obs.SpanLookup:       obs.SpanProcess,
		obs.SpanIndexGet:     obs.SpanLookup,
		obs.SpanEval:         obs.SpanProcess,
		obs.SpanResults:      obs.SpanProcess,
	}
	for name, parent := range wantUnder {
		r, ok := byName[name]
		if !ok {
			t.Errorf("span %s missing from the tree", name)
			continue
		}
		if got := byID[r.Parent].Name; got != parent {
			t.Errorf("span %s nested under %q, want %q", name, got, parent)
		}
	}
	if get := byName[obs.SpanIndexGet]; get.Calls() == 0 {
		t.Errorf("%s span attributes no billed calls: %+v", obs.SpanIndexGet, get)
	}
	if root.Modeled <= 0 {
		t.Errorf("root modeled duration = %v, want > 0", root.Modeled)
	}

	// Same corpus, same query, fresh warehouse: the modeled timings and
	// billed ops of every span must reproduce exactly.
	again, id2 := trace()
	if id2 != id {
		t.Fatalf("query IDs diverged: %s vs %s", id, id2)
	}
	if len(again) != len(spans) {
		t.Fatalf("span counts diverged: %d vs %d", len(spans), len(again))
	}
	for i := range spans {
		a, b := spans[i], again[i]
		if a.Name != b.Name || a.Modeled != b.Modeled || a.Calls() != b.Calls() {
			t.Errorf("span %d not reproducible: %s/%v/%d vs %s/%v/%d",
				i, a.Name, a.Modeled, a.Calls(), b.Name, b.Modeled, b.Calls())
		}
	}

	tree := obs.FormatTree(spans)
	for _, want := range []string{obs.SpanQuery, obs.SpanProcess, obs.SpanLookup, "billed:"} {
		if !strings.Contains(tree, want) {
			t.Errorf("FormatTree output missing %q:\n%s", want, tree)
		}
	}
}

// TestIndexingSpanTree is TestTracedSpanTree's sibling for the write side:
// under the per-document and the bulk driver alike, every document is one
// root index.doc span naming its URI, with an extract and an upload child
// that carry modeled time.
func TestIndexingSpanTree(t *testing.T) {
	docs := obsTestCorpus()
	for _, bulk := range []bool{false, true} {
		w, _ := indexCorpus(t, Config{Strategy: index.TwoLUPI, Trace: true, BulkLoad: bulk}, 2, docs)
		roots := map[int64]string{} // index.doc span ID -> URI
		children := map[string]map[string]int{}
		spans := w.Tracer().Spans()
		for _, r := range spans {
			if r.Name == obs.SpanIndexDoc {
				if r.Parent != 0 || r.Modeled <= 0 || r.Err != "" {
					t.Errorf("bulk=%v: %s span %+v, want a clean root with modeled time", bulk, obs.SpanIndexDoc, r)
				}
				roots[r.ID] = r.Attr("uri")
				children[r.Attr("uri")] = map[string]int{}
			}
		}
		for _, r := range spans {
			if uri, ok := roots[r.Parent]; ok {
				children[uri][r.Name]++
				if r.Modeled <= 0 {
					t.Errorf("bulk=%v: %s of %s has no modeled time", bulk, r.Name, uri)
				}
			}
		}
		if len(children) != len(docs) {
			t.Errorf("bulk=%v: %d documents traced, want %d", bulk, len(children), len(docs))
		}
		for _, d := range docs {
			if got := children[d.URI]; len(got) != 2 || got[obs.SpanExtract] != 1 || got[obs.SpanUpload] != 1 {
				t.Errorf("bulk=%v: %s has children %v, want one %s and one %s", bulk, d.URI, got, obs.SpanExtract, obs.SpanUpload)
			}
		}
	}
}

// TestServedSpanTree is the live side of TestTracedSpanTree: a query through
// Frontend.Do and a live processor leaves three trees under its ID — the
// front end's submit.query, the processor's query → process → ..., and the
// dispatcher's fetch.results (steps 16-18) — so Tracer.QuerySpans shows the
// whole round trip.
func TestServedSpanTree(t *testing.T) {
	w, _ := indexCorpus(t, Config{Strategy: index.TwoLUPI, Trace: true}, 2, obsTestCorpus())
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	defer qp.Stop()
	fe := NewFrontend(w)
	defer fe.Close()
	out, err := fe.Do(workload.XMark()[2].Text, true, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}

	spans := w.Tracer().QuerySpans(out.ID)
	byName := map[string]obs.SpanRecord{}
	byID := map[int64]obs.SpanRecord{}
	for _, r := range spans {
		byName[r.Name] = r
		byID[r.ID] = r
	}
	for _, name := range []string{obs.SpanSubmitQuery, obs.SpanQuery, obs.SpanFetchResults} {
		r, ok := byName[name]
		if !ok {
			t.Errorf("no %s span for query %s (got %v)", name, out.ID, spans)
			continue
		}
		if r.Parent != 0 || r.Attr("id") != out.ID || r.Modeled <= 0 {
			t.Errorf("%s span %+v, want a root carrying id %s and modeled time", name, r, out.ID)
		}
	}
	for name, parent := range map[string]string{
		obs.SpanProcess: obs.SpanQuery,
		obs.SpanLookup:  obs.SpanProcess,
		obs.SpanEval:    obs.SpanProcess,
		obs.SpanResults: obs.SpanProcess,
	} {
		r, ok := byName[name]
		if !ok {
			t.Errorf("span %s missing from the tree", name)
			continue
		}
		if got := byID[r.Parent].Name; got != parent {
			t.Errorf("span %s nested under %q, want %q", name, got, parent)
		}
	}
	if got, want := byName[obs.SpanFetchResults].Attr("bytes"), strconv.Itoa(len(encodeResult(mustDecode(t, out)))); got != want {
		t.Errorf("%s fetched %s bytes, the result encodes to %s", obs.SpanFetchResults, got, want)
	}
}

// The index store's physical footprint is on the registry as kv.arena.*,
// read from the store at export time: live bytes and chunks after indexing,
// dead bytes after a removal, and a rewrite once the removals have killed
// as many bytes as stay live.
func TestArenaMetrics(t *testing.T) {
	docs := obsTestCorpus()
	w, _ := indexCorpus(t, Config{Strategy: index.TwoLUPI}, 2, docs)
	value := func(name string) int64 {
		t.Helper()
		var buf strings.Builder
		if err := obs.WriteProm(&buf, w.Registry()); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseProm(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.Name == name {
				return int64(s.Value)
			}
		}
		t.Fatalf("%s is not exported", name)
		return 0
	}
	live := value("xwh_kv_arena_live_bytes")
	if live <= 0 || value("xwh_kv_arena_chunks") <= 0 {
		t.Fatalf("after indexing: live_bytes %d, chunks %d, want both > 0", live, value("xwh_kv_arena_chunks"))
	}
	if dead, rewrites := value("xwh_kv_arena_dead_bytes"), value("xwh_kv_arena_rewrites_total"); dead != 0 || rewrites != 0 {
		t.Fatalf("after indexing alone: dead_bytes %d, rewrites %d, want 0 and 0", dead, rewrites)
	}
	in := ec2.Launch(w.Ledger(), ec2.Large)
	if err := w.RemoveDocument(in, docs[0].URI); err != nil {
		t.Fatal(err)
	}
	if dead := value("xwh_kv_arena_dead_bytes"); dead <= 0 || value("xwh_kv_arena_live_bytes") >= live {
		t.Errorf("after one removal: dead_bytes %d, live_bytes %d (was %d)", dead, value("xwh_kv_arena_live_bytes"), live)
	}
	for _, d := range docs[1:] {
		if err := w.RemoveDocument(in, d.URI); err != nil {
			t.Fatal(err)
		}
	}
	if rewrites := value("xwh_kv_arena_rewrites_total"); rewrites <= 0 {
		t.Errorf("after removing every document: rewrites %d, want > 0", rewrites)
	}
	if got := value("xwh_kv_arena_live_bytes"); got != 0 {
		t.Errorf("after removing every document: live_bytes %d, want 0", got)
	}
}

// The eval span says what the fetch-and-evaluate step skipped: the nodes the
// projected parse counted and the ones it built, which the registry sums as
// xmltree.nodes.*, and its wall time split into fetch + parse and matching.
func TestEvalSpanCountsNodesScannedAndBuilt(t *testing.T) {
	w, _ := indexCorpus(t, Config{Strategy: index.TwoLUPI, Trace: true}, 2, obsTestCorpus())
	in := ec2.Launch(w.ledger, ec2.XL)
	var scanned, built int64
	for _, q := range []workload.Query{workload.XMark()[5], workload.XMark()[9]} {
		_, st, err := w.RunQueryOn(in, q.Text, true)
		if err != nil {
			t.Fatal(err)
		}
		var eval obs.SpanRecord
		for _, r := range w.Tracer().QuerySpans(st.ID) {
			if r.Name == obs.SpanEval {
				eval = r
			}
		}
		attr := func(key string) int64 {
			v, err := strconv.ParseInt(eval.Attr(key), 10, 64)
			if err != nil {
				t.Errorf("%s: %s span attribute %s = %q", q.Name, obs.SpanEval, key, eval.Attr(key))
			}
			return v
		}
		s, b := attr("nodes_scanned"), attr("nodes_built")
		if attr("docs") != int64(st.DocsFetched) || st.DocsFetched == 0 || b <= 0 || b >= s {
			t.Errorf("%s: %d documents, %d of %d nodes built, want some and not all", q.Name, attr("docs"), b, s)
		}
		if wall := eval.Wall.Microseconds(); attr("fetch_parse_us")+attr("match_us") > wall {
			t.Errorf("%s: fetch_parse_us %d + match_us %d exceed the span's %d us", q.Name, attr("fetch_parse_us"), attr("match_us"), wall)
		}
		scanned, built = scanned+s, built+b
	}
	reg := w.Registry()
	if s, b := reg.Counter("xmltree.nodes.scanned").Value(), reg.Counter("xmltree.nodes.built").Value(); s != scanned || b != built {
		t.Errorf("the registry counts %d scanned and %d built nodes, the spans %d and %d", s, b, scanned, built)
	}
}
