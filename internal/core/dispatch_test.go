package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/engine"
	"repro/internal/index"
)

func startFrontendWarehouse(t *testing.T) (*Warehouse, *Frontend, *Worker) {
	t.Helper()
	w := newWarehouse(t, index.LU)
	fleet := []*ec2.Instance{ec2.Launch(w.ledger, ec2.Large)}
	loadPaintings(t, w, fleet)
	qp := w.StartQueryProcessor(ec2.Launch(w.ledger, ec2.XL), WorkerOptions{})
	return w, NewFrontend(w), qp
}

// awaitOutcome receives the outcome of a Frontend.Submit, failing the test
// if it does not arrive in time.
func awaitOutcome(t *testing.T, ch <-chan *QueryOutcome, timeout time.Duration) *QueryOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(timeout):
		t.Fatal("timed out waiting for a query outcome")
		return nil
	}
}

// mustDecode decodes an outcome's result object, failing the test if it does
// not decode.
func mustDecode(t *testing.T, out *QueryOutcome) *engine.Result {
	t.Helper()
	res, err := decodeResult(out.Body)
	if err != nil {
		t.Fatalf("outcome %s: %v", out.ID, err)
	}
	return res
}

// Responses are routed by query ID, not by arrival order. A response nobody
// registered for sits at the head of the response queue (oldest first) and
// is stepped over, not consumed and not allowed to block the ones behind it;
// of two registered queries, the caller that waits for the later one first
// gets the later one's rows, and the earlier one's caller still gets its own.
func TestFrontendRoutesResponsesByID(t *testing.T) {
	w, f, qp := startFrontendWarehouse(t)
	defer qp.Stop()
	defer f.Close()

	if _, err := w.SubmitQuery(`//painter`, true); err != nil { // foreign: no waiter
		t.Fatal(err)
	}
	idA, chA, err := f.Submit(`//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	idB, chB, err := f.Submit(`//museum[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	outB := awaitOutcome(t, chB, 10*time.Second)
	outA := awaitOutcome(t, chA, 10*time.Second)
	for _, c := range []struct {
		name string
		id   string
		out  *QueryOutcome
		rows int
	}{{"A", idA, outA, 9}, {"B", idB, outB, 4}} {
		if c.out.Err != nil {
			t.Fatalf("%s: %v", c.name, c.out.Err)
		}
		if c.out.ID != c.id || c.out.Rows != c.rows || len(mustDecode(t, c.out).Rows) != c.rows {
			t.Errorf("%s: outcome %s with %d rows, want %s with %d", c.name, c.out.ID, c.out.Rows, c.id, c.rows)
		}
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("Pending = %d after both outcomes delivered", n)
	}
	if n := w.queues.Len(ResponseQueue); n != 1 {
		t.Errorf("response queue holds %d messages, want the 1 foreign response", n)
	}
}

// Concurrent Do calls share one dispatcher: every caller gets its own
// query's outcome, and nothing is left pending afterwards.
func TestFrontendConcurrentDo(t *testing.T) {
	_, f, qp := startFrontendWarehouse(t)
	defer qp.Stop()
	defer f.Close()

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := f.Do(`//painting[/name{val}]`, true, 20*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = out.Err
			if out.Err == nil && out.Rows == 0 {
				t.Errorf("client %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("Pending = %d after all outcomes delivered", n)
	}
}

// A timed-out query is abandoned: Do returns the timeout error, Pending
// drops to zero, and the late response is consumed by the dispatcher so
// the next query is unaffected.
func TestFrontendTimeoutAbandons(t *testing.T) {
	_, f, qp := startFrontendWarehouse(t)
	defer qp.Stop()
	defer f.Close()

	_, err := f.Do(`//painting[/name{val}]`, true, 0)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Do with zero timeout = %v, want timeout error", err)
	}
	if n := f.Pending(); n != 0 {
		t.Fatalf("Pending = %d after abandon", n)
	}
	// The abandoned query's response must not poison this one.
	out, err := f.Do(`//museum[/name{val}]`, true, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}

// Close wakes blocked waiters with a frontend-closed error.
func TestFrontendCloseUnblocksWaiters(t *testing.T) {
	w := newWarehouse(t, index.LU)
	fleet := []*ec2.Instance{ec2.Launch(w.ledger, ec2.Large)}
	loadPaintings(t, w, fleet)
	// No query processor: the submitted query never gets a response.
	f := NewFrontend(w)
	errCh := make(chan error, 1)
	go func() {
		_, err := f.Do(`//painting`, true, time.Minute)
		errCh <- err
	}()
	// Let the submit land before closing.
	for f.Pending() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	f.Close()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("Do after Close = %v, want frontend-closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by Close")
	}
}
