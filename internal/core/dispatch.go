package core

import (
	"fmt"
	"sync"
	"time"
)

// This file implements the serving front end: a response dispatcher that
// lets many concurrent clients share the warehouse's query pipeline. It has
// the shape a real server uses — a send per request, ONE receive loop on the
// response queue that routes each response to its waiting caller by query ID
// and collects the result (steps 16-18 of Figure 1). Were every waiter to
// poll the response queue itself, N waiters would cost O(N) billed receives
// per response and bounce messages between leases.

// Frontend multiplexes concurrent clients over the warehouse's query and
// response queues. Create with NewFrontend, issue queries with Do (or
// Submit + the returned channel), and Close when done. A warehouse should
// have at most one running Frontend. Neither it nor RunQueryOn consumes a
// response the other awaits, but while the dispatcher holds one to step over
// it, the driver's non-waiting receive finds nothing: keep them apart.
type Frontend struct {
	w *Warehouse

	mu        sync.Mutex
	pending   map[string]chan *QueryOutcome
	abandoned map[string]bool

	stop chan struct{}
	done sync.WaitGroup
}

// NewFrontend starts the response dispatcher and returns the front end.
func NewFrontend(w *Warehouse) *Frontend {
	f := &Frontend{
		w:         w,
		pending:   make(map[string]chan *QueryOutcome),
		abandoned: make(map[string]bool),
		stop:      make(chan struct{}),
	}
	f.done.Add(1)
	go f.dispatch()
	return f
}

// Submit enqueues a query (steps 7-8) and returns its ID plus the channel
// its outcome will be delivered on (buffered; the dispatcher never blocks).
// The channel is registered under the ID before the message is sent, so the
// dispatcher knows every response it may receive for this front end.
func (f *Frontend) Submit(queryText string, useIndex bool) (string, <-chan *QueryOutcome, error) {
	id := f.w.nextQueryID()
	ch := make(chan *QueryOutcome, 1)
	f.mu.Lock()
	f.pending[id] = ch
	f.mu.Unlock()
	if err := f.w.sendQuery(nil, id, queryText, useIndex); err != nil {
		f.take(id)
		return "", nil, err
	}
	return id, ch, nil
}

// Do runs one query to completion: submit, wait for the routed response,
// return the outcome. A timeout abandons the query — its response message,
// when it eventually arrives, is consumed and discarded so it cannot
// poison later queries. An outcome is returned only before the deadline, so
// the clock, not select, decides a tie with the timer (with a zero timeout a
// fast processor's outcome can be there already: Submit registers first).
func (f *Frontend) Do(queryText string, useIndex bool, timeout time.Duration) (*QueryOutcome, error) {
	id, ch, err := f.Submit(queryText, useIndex)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		if time.Now().Before(deadline) {
			return out, nil
		}
	case <-t.C:
	case <-f.stop:
		return nil, fmt.Errorf("core: frontend closed while waiting for %s", id)
	}
	f.abandon(id)
	return nil, fmt.Errorf("core: timed out waiting for result of %s", id)
}

// abandon forgets a pending query; the dispatcher will delete its response
// message on arrival instead of routing it.
func (f *Frontend) abandon(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.pending[id]; ok {
		delete(f.pending, id)
		f.abandoned[id] = true
	}
}

// Pending reports how many submitted queries are still awaiting responses.
func (f *Frontend) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Close stops the dispatcher. In-flight waiters receive a frontend-closed
// error; the query processors keep draining the query queue independently.
func (f *Frontend) Close() { shutDown(f.stop, &f.done) }

// take resolves a response ID to its waiting channel (removing it), or
// reports the ID was abandoned (consuming the abandonment).
func (f *Frontend) take(id string) (chan *QueryOutcome, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.pending[id]; ok {
		delete(f.pending, id)
		return ch, false
	}
	if f.abandoned[id] {
		delete(f.abandoned, id)
		return nil, true
	}
	return nil, false
}

func (f *Frontend) dispatch() {
	defer f.done.Done()
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		m, rtt, err := f.w.queues.ReceiveWait(ResponseQueue, 30*time.Second, 100*time.Millisecond)
		if err != nil {
			continue
		}
		if m == nil {
			f.w.met.receiveEmpty.Inc()
			continue
		}
		resp, ok := f.w.readResponse(m)
		if !ok {
			continue
		}
		ch, wasAbandoned := f.take(resp.ID)
		if ch == nil {
			if wasAbandoned {
				f.w.queues.Delete(ResponseQueue, m.Receipt)
			} else {
				// Not this front end's: SubmitQuery's caller collects it.
				f.w.stepOver(m)
			}
			continue
		}
		out := &QueryOutcome{ID: resp.ID}
		if out.Body, out.Err = f.w.collectResult(nil, resp, m.Receipt, rtt); out.Err == nil {
			out.Rows = resp.Rows
		}
		ch <- out
	}
}
