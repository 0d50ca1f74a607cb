package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a.b").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.Add("a.b", 10) // CounterSink path
	if got := c.Value(); got != 15 {
		t.Fatalf("after sink Add: counter = %d, want 15", got)
	}
}

// A func-backed gauge or counter reports what its function returns at the
// time it is read, through every exporter, and ignores Set and Add.
func TestGaugeFuncAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	var state int64 = 7
	r.GaugeFunc("store.bytes", func() int64 { return state })
	r.CounterFunc("store.rewrites", func() int64 { return state / 2 })
	r.Gauge("store.bytes").Set(1000)
	r.Counter("store.rewrites").Add(1000)
	if g, c := r.Gauge("store.bytes").Value(), r.Counter("store.rewrites").Value(); g != 7 || c != 3 {
		t.Errorf("gauge %d, counter %d, want 7 and 3", g, c)
	}
	state = 20
	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xwh_store_bytes 20\n", "xwh_store_rewrites_total 10\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("WriteProm missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	h.Observe(500*time.Microsecond, 5*time.Millisecond)
	h.ObserveWall(50 * time.Millisecond)
	h.ObserveModeled(time.Second) // overflow bucket

	wall := h.Wall()
	if wall.Count != 2 || wall.Counts[0] != 1 || wall.Counts[2] != 1 {
		t.Fatalf("wall snapshot = %+v", wall)
	}
	mod := h.Modeled()
	if mod.Count != 2 || mod.Counts[1] != 1 || mod.Counts[3] != 1 {
		t.Fatalf("modeled snapshot = %+v", mod)
	}
	if got := mod.Sum; got != 5*time.Millisecond+time.Second {
		t.Fatalf("modeled sum = %v", got)
	}
	if q := wall.Quantile(0.5); q != time.Millisecond {
		t.Fatalf("wall p50 = %v, want 1ms", q)
	}
	if q := wall.Quantile(0.99); q != 100*time.Millisecond {
		t.Fatalf("wall p99 = %v, want 100ms", q)
	}
	// Overflow observations report the largest finite bound.
	if q := mod.Quantile(0.99); q != 100*time.Millisecond {
		t.Fatalf("modeled p99 = %v, want 100ms", q)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter should stay zero")
	}
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(time.Second, time.Second)
	if r.Histogram("h").Wall().Count != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	r.Add("x", 1)
	if r.CounterNames() != nil || r.HistogramNames() != nil {
		t.Fatal("nil registry names should be nil")
	}

	var tr *Tracer
	s := tr.Start("root")
	s.SetAttr("k", "v")
	s.SetModeled(time.Second)
	s.SetError(errors.New("boom"))
	c2 := s.Child("child")
	c2.End()
	s.End()
	if tr.Spans() != nil {
		t.Fatal("nil tracer should have no spans")
	}
	if got := tr.ChildOf(nil, "x"); got != nil {
		t.Fatal("nil tracer ChildOf should return nil")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Millisecond, time.Millisecond)
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Wall().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestTracerSpanTreeAndLedgerDiff(t *testing.T) {
	led := meter.NewLedger()
	tr := NewTracer(led, 16)

	root := tr.Start("query")
	root.SetAttr("id", "q-000001")
	child := root.Child("lookup")
	led.Record("dynamodb", "get", 3, 5, 1024)
	child.SetModeled(2 * time.Second)
	child.End()
	led.Record("s3", "get", 1, 1, 4096)
	led.AddEgress(128)
	root.SetModeled(5 * time.Second)
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Journal is oldest-first; the child ended first.
	lu, q := spans[0], spans[1]
	if lu.Name != "lookup" || q.Name != "query" {
		t.Fatalf("span order: %q, %q", lu.Name, q.Name)
	}
	if lu.Parent != q.ID {
		t.Fatalf("lookup parent = %d, want %d", lu.Parent, q.ID)
	}
	if lu.Modeled != 2*time.Second {
		t.Fatalf("lookup modeled = %v", lu.Modeled)
	}
	if len(lu.Ops) != 1 || lu.Ops[0] != (OpCounts{"dynamodb", "get", 3, 5, 1024}) {
		t.Fatalf("lookup ops = %+v", lu.Ops)
	}
	// Root diff covers the child's billing plus its own.
	if q.Calls() != 4 {
		t.Fatalf("query calls = %d, want 4", q.Calls())
	}
	if q.Egress != 128 {
		t.Fatalf("query egress = %d", q.Egress)
	}
	if got := q.LedgerDiff().Get("s3", "get").Bytes; got != 4096 {
		t.Fatalf("query ledger diff s3 bytes = %d", got)
	}
	if q.Attr("id") != "q-000001" {
		t.Fatalf("query id attr = %q", q.Attr("id"))
	}

	// End is idempotent.
	root.End()
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("after duplicate End: %d spans", n)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(nil, 3)
	for i := 0; i < 5; i++ {
		s := tr.Start("s")
		s.SetAttrInt("i", int64(i))
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("journal holds %d spans, want 3", len(spans))
	}
	if spans[0].Attr("i") != "2" || spans[2].Attr("i") != "4" {
		t.Fatalf("wrong eviction order: %v ... %v", spans[0].Attrs, spans[2].Attrs)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestQuerySpansSelectsTree(t *testing.T) {
	tr := NewTracer(nil, 32)
	q1 := tr.Start("query")
	q1.SetAttr("id", "q-000001")
	c1 := q1.Child("lookup")
	g1 := c1.Child("index.get")
	g1.End()
	c1.End()
	q1.End()
	q2 := tr.Start("query")
	q2.SetAttr("id", "q-000002")
	q2.End()

	sel := tr.QuerySpans("q-000001")
	if len(sel) != 3 {
		t.Fatalf("selected %d spans, want 3", len(sel))
	}
	for _, r := range sel {
		if r.Attr("id") == "q-000002" {
			t.Fatal("selected the wrong query's span")
		}
	}
	tree := FormatTree(sel)
	if !strings.Contains(tree, "query") || !strings.Contains(tree, "  lookup") ||
		!strings.Contains(tree, "    index.get") {
		t.Fatalf("tree missing expected structure:\n%s", tree)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	led := meter.NewLedger()
	tr := NewTracer(led, 8)
	s := tr.Start("extract")
	led.Record("s3", "get", 1, 1, 100)
	s.SetModeled(time.Second)
	s.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("journal JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(recs) != 1 || recs[0]["name"] != "extract" {
		t.Fatalf("unexpected journal: %v", recs)
	}
}

func TestWritePromAndParse(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.query.processed").Add(3)
	r.Gauge("core.workers").Set(2)
	h := r.Histogram("core.query.response", time.Second, 10*time.Second)
	h.Observe(time.Second/2, 2*time.Second)

	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exporter output does not parse: %v\n%s", err, buf.String())
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Labels == "" {
			byName[s.Name] = s.Value
		}
	}
	if byName["xwh_core_query_processed_total"] != 3 {
		t.Fatalf("counter sample missing: %v", byName)
	}
	if byName["xwh_core_workers"] != 2 {
		t.Fatalf("gauge sample missing: %v", byName)
	}
	if byName["xwh_core_query_response_modeled_seconds_count"] != 1 {
		t.Fatalf("histogram count missing: %v", byName)
	}
	if byName["xwh_core_query_response_modeled_seconds_sum"] != 2 {
		t.Fatalf("histogram sum = %v", byName["xwh_core_query_response_modeled_seconds_sum"])
	}
	// Cumulative buckets: wall 0.5s falls under le="1".
	found := false
	for _, s := range samples {
		if s.Name == "xwh_core_query_response_wall_seconds_bucket" && s.Labels == `le="1"` {
			found = true
			if s.Value != 1 {
				t.Fatalf("wall le=1 bucket = %v, want 1", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("missing le=1 bucket sample")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		"name not-a-number",
		"bad{unclosed 1",
		"bad-name! 1",
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseProm accepted %q", bad)
		}
	}
	samples, err := ParseProm(strings.NewReader("# HELP x y\n\nx 1\n"))
	if err != nil || len(samples) != 1 {
		t.Fatalf("comment handling broken: %v %v", samples, err)
	}
}

func TestWriteJSONRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Histogram("h", time.Second).ObserveModeled(time.Second)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Modeled struct {
				Count int64 `json:"count"`
			} `json:"modeled"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["c"] != 1 || doc.Histograms["h"].Modeled.Count != 1 {
		t.Fatalf("unexpected JSON: %s", buf.String())
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.query.processed").Add(2)
	r.Histogram("core.query.response").Observe(time.Millisecond, time.Second)
	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"core.query.processed", "core.query.response.modeled", "core.query.response.wall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestStageOrder(t *testing.T) {
	names := []string{"zzz", SpanEval, SpanExtract, SpanLookup, SpanIndexDoc, "aaa"}
	StageOrder(names)
	want := []string{SpanIndexDoc, SpanExtract, SpanLookup, SpanEval, "aaa", "zzz"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
}
