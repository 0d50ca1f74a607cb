package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/sqs"
	"repro/internal/index"
	"repro/internal/xmark"
)

func newWarehouse(t *testing.T, s index.Strategy) *Warehouse {
	t.Helper()
	w, err := New(Config{Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// liveClock is the stepped clock a warehouse's live pipeline runs on in a
// test, with the number of receives in progress, which tells the test when
// every live loop waits and time may be stepped.
type liveClock struct {
	*clock.Stepped
	receiving atomic.Int64
}

// steppedWarehouse builds a warehouse whose live pipeline runs on a stepped
// clock (liveClockOf returns it).
func steppedWarehouse(t *testing.T, cfg Config) *Warehouse {
	t.Helper()
	clk := &liveClock{Stepped: clock.NewStepped(time.Unix(0, 0))}
	w, err := newOn(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	w.queues = receiveCounter{queueService: w.queues, n: &clk.receiving}
	return w
}

// liveClockOf is the clock of a warehouse steppedWarehouse built.
func liveClockOf(w *Warehouse) *liveClock { return w.clock.(*liveClock) }

// awaitParked returns once each of loops live loops waits on the clock:
// in a receive, on one timer, or sitting out its WorkDelay, on two (the
// delay and its lease renewal). A loop at work holds at most its renewal's
// timer, so the count of timers reaches 2*loops-receiving only when every
// loop waits. A renewal that fails, because another loop took the message
// over, renews no more and leaves its loop one timer: where that can
// happen, a test keeps WorkDelay under half the lease, so that no renewal
// fires while its loop waits. A Frontend.Do in progress holds a timer of its
// own, so a test that waits this way submits with Frontend.Submit.
func (c *liveClock) awaitParked(loops int) {
	c.BlockUntil(func(timers int) bool { return timers == 2*loops-int(c.receiving.Load()) })
}

// receiveCounter counts a warehouse's receives in progress.
type receiveCounter struct {
	queueService
	n *atomic.Int64
}

func (r receiveCounter) Receive(ctx context.Context, queueName string, visibility, wait time.Duration) (*sqs.Message, time.Duration, error) {
	r.n.Add(1)
	defer r.n.Add(-1)
	return r.queueService.Receive(ctx, queueName, visibility, wait)
}

func loadPaintings(t *testing.T, w *Warehouse, fleet []*ec2.Instance) IndexReport {
	t.Helper()
	var uris []string
	for _, d := range xmark.Paintings() {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}
	rep, err := w.IndexCorpusOn(fleet, uris)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIndexCorpusOnReport(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 2)
	rep := loadPaintings(t, w, fleet)
	if rep.Docs != 13 {
		t.Errorf("docs = %d, want 13", rep.Docs)
	}
	if rep.Items == 0 || rep.Entries == 0 || rep.Total <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Items != int(w.IndexItems()) {
		t.Errorf("report items %d != store items %d", rep.Items, w.IndexItems())
	}
	raw, ovh := w.IndexBytes()
	if raw <= 0 || ovh <= 0 {
		t.Errorf("index bytes = %d, %d", raw, ovh)
	}
	if w.DataBytes() <= 0 {
		t.Error("no data bytes")
	}
	// Queue fully drained.
	if w.queues.Len(LoaderQueue) != 0 {
		t.Error("loader queue not drained")
	}
}

func TestRunQueryOnWithAndWithoutIndex(t *testing.T) {
	for _, s := range index.All() {
		w := newWarehouse(t, s)
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
		loadPaintings(t, w, fleet)
		in := ec2.Launch(w.ledger, ec2.XL)

		const q = `//painting[/name~"Lion", /painter[/name[/last{val}]]]`
		withIdx, si, err := w.RunQueryOn(in, q, true)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		noIdx, sn, err := w.RunQueryOn(in, q, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(withIdx.Rows) != 2 || len(noIdx.Rows) != 2 {
			t.Errorf("%s: rows with=%d without=%d, want 2", s.Name(), len(withIdx.Rows), len(noIdx.Rows))
		}
		if si.DocsFetched >= sn.DocsFetched {
			t.Errorf("%s: indexed fetched %d docs, no-index %d", s.Name(), si.DocsFetched, sn.DocsFetched)
		}
		if si.ResponseTime >= sn.ResponseTime {
			t.Errorf("%s: indexed response %v not faster than %v", s.Name(), si.ResponseTime, sn.ResponseTime)
		}
		if si.Lookup.GetOps == 0 || sn.Lookup.GetOps != 0 {
			t.Errorf("%s: get ops with=%d without=%d", s.Name(), si.Lookup.GetOps, sn.Lookup.GetOps)
		}
		if sn.DocsFetched != 13 {
			t.Errorf("no-index fetched %d docs, want all 13", sn.DocsFetched)
		}
	}
}

func TestValueJoinQueryThroughWarehouse(t *testing.T) {
	w := newWarehouse(t, index.TwoLUPI)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	res, stats, err := w.RunQueryOn(in,
		`//museum[/name{val}, //painting[/@id $a]], //painting[/@id $b, /painter[/name[/last="Delacroix"]]] where $a = $b`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("join query returned nothing")
	}
	for _, r := range res.Rows {
		if r.Cols[0] == "Musee dOrsay" {
			t.Errorf("false join result: %v", r)
		}
	}
	if stats.DocIDsFromIndex <= stats.DocsFetched-1 {
		// Per-pattern counts sum across patterns; with two patterns this
		// is at least the fetched unions.
		t.Logf("doc ids=%d fetched=%d", stats.DocIDsFromIndex, stats.DocsFetched)
	}
}

func TestQueryStatsDecomposition(t *testing.T) {
	w := newWarehouse(t, index.TwoLUPI)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.XL)
	_, st, err := w.RunQueryOn(in, `//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lookup.GetTime <= 0 || st.PlanTime <= 0 || st.FetchEvalTime <= 0 {
		t.Errorf("decomposition has zero components: %+v", st)
	}
	// The multicore overlap property the paper highlights: response time
	// below the sum of the detailed components is allowed; it must at
	// least cover the serial look-up part.
	if st.ResponseTime < st.Lookup.GetTime+st.PlanTime {
		t.Errorf("response %v below serial lookup %v", st.ResponseTime, st.Lookup.GetTime+st.PlanTime)
	}
}

func TestXLFasterThanLSameWorkload(t *testing.T) {
	times := map[string]time.Duration{}
	for _, typ := range []ec2.InstanceType{ec2.Large, ec2.XL} {
		w := newWarehouse(t, index.LU)
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
		loadPaintings(t, w, fleet)
		in := ec2.Launch(w.ledger, typ)
		_, st, err := w.RunQueryOn(in, `//painting[/name{val}]`, false)
		if err != nil {
			t.Fatal(err)
		}
		times[typ.Name] = st.ResponseTime
	}
	if times["xl"] >= times["l"] {
		t.Errorf("xl (%v) not faster than l (%v)", times["xl"], times["l"])
	}
}

func TestLivePipelineEndToEnd(t *testing.T) {
	w := steppedWarehouse(t, Config{Strategy: index.LUP})
	// Submit documents through the front end (steps 1-3).
	for _, d := range xmark.Paintings() {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	// Two live indexers.
	idx1 := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	idx2 := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	liveClockOf(w).awaitParked(2) // both wait for work: the queue is drained
	idx1.Stop()
	idx2.Stop()
	if w.queues.Len(LoaderQueue) != 0 {
		t.Fatal("loader queue not drained by live indexers")
	}
	if idx1.Processed()+idx2.Processed() != 13 {
		t.Fatalf("processed %d + %d, want 13", idx1.Processed(), idx2.Processed())
	}

	// One live query processor; query through the front end (7-8, 16-18).
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	defer qp.Stop()
	fe := NewFrontend(w)
	defer fe.Close()
	out, err := fe.Do(`//painting[/name~"Lion", /painter[/name[/last{val}]]]`, true, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Rows != 2 {
		t.Errorf("rows = %d, want 2", out.Rows)
	}
}

func TestFaultToleranceIndexerCrash(t *testing.T) {
	w := steppedWarehouse(t, Config{Strategy: index.LU})
	clk := liveClockOf(w)
	for _, d := range xmark.Paintings()[:4] {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	// A slow worker with a short lease takes a document.
	const lease = 50 * time.Millisecond
	victim := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{
		Visibility: lease,
		WorkDelay:  time.Second,
	})
	clk.awaitParked(1)
	// While it lives it renews the lease at every half lease, so the lease
	// never lapses; then it crashes mid-document.
	for i := 0; i < 3; i++ {
		clk.Advance(lease / 2)
		clk.awaitParked(1)
	}
	if n := w.Registry().Counter("core.worker.lease_renewals").Value(); n != 3 {
		t.Errorf("%d lease renewals over one and a half leases, want 3", n)
	}
	victim.Crash()

	// A healthy worker indexes the other documents, waits for the abandoned
	// lease to lapse and then indexes that one too.
	rescuer := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	clk.awaitParked(1)
	if got := w.queues.Len(LoaderQueue); got != 1 {
		t.Fatalf("queue holds %d messages before the lease lapses, want the crashed one", got)
	}
	clk.Advance(lease)
	clk.awaitParked(1)
	rescuer.Stop()
	if got := w.queues.Len(LoaderQueue); got != 0 {
		t.Fatalf("queue still holds %d messages after crash recovery", got)
	}
	if victim.Processed() != 0 || rescuer.Processed() != 4 {
		t.Errorf("victim processed %d and rescuer %d, want 0 and 4", victim.Processed(), rescuer.Processed())
	}
	if n := w.Registry().Counter("core.worker.redeliveries").Value(); n != 1 {
		t.Errorf("%d redeliveries, want the crashed document's 1", n)
	}
}

func TestErrorQueryReportedThroughResponseQueue(t *testing.T) {
	w := newWarehouse(t, index.LU)
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{})
	defer qp.Stop()
	fe := NewFrontend(w)
	defer fe.Close()
	out, err := fe.Do(`not a ( valid query`, true, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil || !errors.Is(out.Err, ErrQueryFailed) {
		t.Errorf("outcome error = %v", out.Err)
	}
}

func TestNewRejectsUnknownBackend(t *testing.T) {
	if _, err := New(Config{Backend: "etcd"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestSimpleDBBackedWarehouse(t *testing.T) {
	w, err := New(Config{Strategy: index.LUI, Backend: "simpledb"})
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	res, _, err := w.RunQueryOn(in, `//painting[/name~"Lion", /painter[/name[/last{val}]]]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
}

func TestMeteringMatchesCostModelShape(t *testing.T) {
	// The per-query queue requests of the deterministic driver must match
	// the cost model: 3 front-end + 3 processor-side requests per query.
	w := newWarehouse(t, index.LU)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.Large)
	before := w.ledger.Snapshot()
	if _, _, err := w.RunQueryOn(in, `//painting[/name{val}]`, true); err != nil {
		t.Fatal(err)
	}
	delta := w.ledger.Snapshot().Sub(before)
	if got := delta.ServiceCalls("sqs"); got != 6 {
		t.Errorf("sqs calls per query = %d, want 6", got)
	}
	if got := delta.EgressBytes(); got <= 0 {
		t.Error("no egress recorded for returned results")
	}
	// One S3 put for the results, gets for the documents fetched.
	if got := delta.Get("s3", "put").Calls; got != 1 {
		t.Errorf("s3 puts per query = %d, want 1", got)
	}
}

func TestDocumentURIs(t *testing.T) {
	w := newWarehouse(t, index.LU)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	uris, err := w.DocumentURIs()
	if err != nil {
		t.Fatal(err)
	}
	if len(uris) != 13 {
		t.Fatalf("uris = %d", len(uris))
	}
	for _, u := range uris {
		if strings.HasPrefix(u, "docs/") {
			t.Errorf("prefix not stripped: %s", u)
		}
	}
}
