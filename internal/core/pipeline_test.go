package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/sqs"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/workload"
)

func TestXQueryThroughWarehouse(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	in := ec2.Launch(w.ledger, ec2.XL)
	res, stats, err := w.RunQueryOn(in,
		`for $p in //painting where contains($p/name, "Lion") return string($p/painter/name/last)`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if stats.GetOps == 0 || stats.DocsFetched >= 13 {
		t.Errorf("XQuery did not go through the index: %+v", stats)
	}
}

func TestParseQueryTextDetection(t *testing.T) {
	cases := []struct {
		text     string
		patterns int
	}{
		{`//painting[/name{val}]`, 1},
		{`for $p in //painting return string($p/name)`, 1},
		{`for $a in //x, $b in //y where $a/k = $b/k return $a/k`, 2},
		// An element literally named "for" still parses as a pattern when
		// not followed by a variable.
		{`//for[/x]`, 1},
		{`for`, 1},
	}
	for _, c := range cases {
		q, err := ParseQueryText(c.text)
		if err != nil {
			t.Errorf("ParseQueryText(%q): %v", c.text, err)
			continue
		}
		if len(q.Patterns) != c.patterns {
			t.Errorf("ParseQueryText(%q): %d patterns, want %d", c.text, len(q.Patterns), c.patterns)
		}
	}
	if _, err := ParseQueryText(`for $x in`); err == nil {
		t.Error("malformed XQuery accepted")
	}
}

func TestQueryProcessorCrashRecovery(t *testing.T) {
	w := newWarehouse(t, index.LU)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)

	// A slow processor with a short lease takes the query and crashes.
	victim := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{
		Visibility: 50 * time.Millisecond,
		WorkDelay:  300 * time.Millisecond,
	})
	fe := NewFrontend(w)
	defer fe.Close()
	_, ch, err := fe.Submit(`//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	victim.Crash()

	// A healthy processor picks the redelivered message up and answers.
	rescuer := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	defer rescuer.Stop()
	out := awaitOutcome(t, ch, 10*time.Second)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Rows != 9 {
		t.Errorf("rows = %d, want 9", out.Rows)
	}
}

func TestConcurrentQueriesOverLiveFleet(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)

	// Three live processors, eight concurrent front-end clients.
	var workers []*Worker
	for i := 0; i < 3; i++ {
		workers = append(workers, w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{}))
	}
	defer func() {
		for _, wk := range workers {
			wk.Stop()
		}
	}()

	queries := []struct {
		text string
		rows int
	}{
		{`//painting[/name{val}]`, 9},
		{`//painting[/name~"Lion", /painter[/name[/last{val}]]]`, 2},
		{`//museum[/name{val}]`, 4},
		{`for $p in //painting where $p/year = "1854" return $p/description`, 1},
	}
	fe := NewFrontend(w)
	defer fe.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			out, err := fe.Do(q.text, true, 15*time.Second)
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if out.Err != nil {
				errs <- out.Err
				return
			}
			if out.Rows != q.rows {
				errs <- fmt.Errorf("query %d (%s): %d rows, want %d", i, q.text, out.Rows, q.rows)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A processor counts a query once its response is posted, which the
	// client may see first: only a stopped worker's count is final.
	total := 0
	for _, wk := range workers {
		wk.Stop()
		total += wk.Processed()
	}
	if total != 8 {
		t.Errorf("workers processed %d queries, want 8", total)
	}
}

// The synchronous driver shares the response queue with whoever submitted
// live: it steps over a response that is not its own query's, never consumes
// it, and returns its own rows.
func TestDriverStepsOverForeignResponse(t *testing.T) {
	w := newWarehouse(t, index.LU)
	loadPaintings(t, w, ec2.LaunchFleet(w.ledger, ec2.Large, 1))

	idA, err := w.SubmitQuery(`//painting[/name{val}]`, true) // 9 rows, never collected
	if err != nil {
		t.Fatal(err)
	}
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	for deadline := time.Now().Add(10 * time.Second); w.queues.Len(ResponseQueue) == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	qp.Stop()
	if n := w.queues.Len(ResponseQueue); n != 1 {
		t.Fatalf("response queue holds %d messages after the live query, want 1", n)
	}

	res, stats, err := w.RunQueryOn(ec2.Launch(w.ledger, ec2.XL), `//museum[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || stats.ResultRows != 4 {
		t.Errorf("driver returned %d rows and reports %d, want 4 and 4 (the foreign query has 9)", len(res.Rows), stats.ResultRows)
	}
	if stats.ID == idA {
		t.Fatalf("driver query reuses the live query's ID %s", idA)
	}
	// A's response is still there for its submitter, B's is consumed.
	if n := w.queues.Len(ResponseQueue); n != 1 {
		t.Fatalf("response queue holds %d messages after the driver, want the 1 foreign response", n)
	}
	// It is receivable again once the step-over re-lease lapses.
	m, _, err := w.queues.ReceiveWait(ResponseQueue, time.Second, 5*time.Second)
	if err != nil || m == nil {
		t.Fatalf("foreign response not receivable: %v, %v", m, err)
	}
	if !strings.Contains(m.Body, idA) {
		t.Errorf("queued response is %s, want the one for %s", m.Body, idA)
	}
}

// "The drivers issue exactly the same service requests" (the package
// comment): the ten XMark queries through RunQueryOn and through Frontend.Do
// over one live processor, on identically built warehouses, bill equal
// calls, units and bytes for every (service, operation) and equal egress.
// Only the receives differ — a live loop's long polls also come back empty —
// and the instance time, which is not a request.
func TestDriverAndLivePipelineBillTheSameRequests(t *testing.T) {
	docs := obsTestCorpus()
	driver, _ := indexCorpus(t, Config{Strategy: index.TwoLUPI}, 2, docs)
	live, _ := indexCorpus(t, Config{Strategy: index.TwoLUPI}, 2, docs)

	in := ec2.Launch(driver.ledger, ec2.XL)
	// A lease long enough that no renewal (a billed changeVisibility, which
	// only a slow machine adds) fires during a query.
	qp := live.StartQueryProcessor(ec2.Launch(live.ledger, ec2.XL), WorkerOptions{Visibility: time.Minute})
	fe := NewFrontend(live)
	for _, q := range workload.XMark() {
		want, _, err := driver.RunQueryOn(in, q.Text, true)
		if err != nil {
			t.Fatalf("%s: driver: %v", q.Name, err)
		}
		out, err := fe.Do(q.Text, true, 30*time.Second)
		if err != nil {
			t.Fatalf("%s: live: %v", q.Name, err)
		}
		if out.Err != nil {
			t.Fatalf("%s: live: %v", q.Name, out.Err)
		}
		if !reflect.DeepEqual(mustDecode(t, out), want) || out.Rows != len(want.Rows) {
			t.Errorf("%s: live and driver results differ", q.Name)
		}
	}
	qp.Stop()
	fe.Close()

	du, lu := driver.ledger.Snapshot(), live.ledger.Snapshot()
	ops := map[meter.Op]bool{}
	for _, op := range append(du.Ops(), lu.Ops()...) {
		ops[op] = true
	}
	for op := range ops {
		d, l := du.Get(op.Service, op.Name), lu.Get(op.Service, op.Name)
		if op.Service == sqs.Backend && op.Name == "receive" {
			if l.Calls < d.Calls {
				t.Errorf("%s: live %+v, driver %+v: live polls at least as often", op, l, d)
			}
			continue
		}
		if d != l {
			t.Errorf("%s: live %+v, driver %+v", op, l, d)
		}
	}
	if du.EgressBytes() != lu.EgressBytes() || du.EgressBytes() == 0 {
		t.Errorf("egress: live %d bytes, driver %d", lu.EgressBytes(), du.EgressBytes())
	}
}
