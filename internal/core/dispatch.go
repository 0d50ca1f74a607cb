package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// This file implements the serving front end: a response dispatcher that
// lets many concurrent clients share the warehouse's query pipeline.
//
// RunQueryOn assumes one interactive caller. The Frontend has the shape a
// real server uses — SubmitQuery per request, ONE receive loop on the
// response queue that routes each response to its waiting caller by query
// ID, fetches the result object (step 17 of Figure 1), meters the egress,
// and deletes the response message exactly once. Were every waiter to poll
// the response queue itself, N waiters would cost O(N) billed receives per
// response and bounce messages between leases.

// Frontend multiplexes concurrent clients over the warehouse's query and
// response queues. Create with NewFrontend, issue queries with Do (or
// Submit + the returned channel), and Close when done. A warehouse should
// have at most one running Frontend, and the interactive RunQueryOn must
// not race with it for the response queue.
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
func (f *Frontend) Submit(queryText string, useIndex bool) (string, <-chan *QueryOutcome, error) {
	id, err := f.w.SubmitQuery(queryText, useIndex)
	if err != nil {
		return "", nil, err
	}
	ch := make(chan *QueryOutcome, 1)
	f.mu.Lock()
	f.pending[id] = ch
	f.mu.Unlock()
	return id, ch, nil
}

// Do runs one query to completion: submit, wait for the routed response,
// return the outcome. A timeout abandons the query — its response message,
// when it eventually arrives, is consumed and discarded so it cannot
// poison later queries.
func (f *Frontend) Do(queryText string, useIndex bool, timeout time.Duration) (*QueryOutcome, error) {
	id, ch, err := f.Submit(queryText, useIndex)
	if err != nil {
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out, nil
	case <-t.C:
		f.abandon(id)
		return nil, fmt.Errorf("core: timed out waiting for result of %s", id)
	case <-f.stop:
		return nil, fmt.Errorf("core: frontend closed while waiting for %s", id)
	}
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
func (f *Frontend) Close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.done.Wait()
}

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
		m, _, err := f.w.queues.ReceiveWait(ResponseQueue, 30*time.Second, 100*time.Millisecond)
		if err != nil || m == nil {
			continue
		}
		var resp responseMessage
		if err := json.Unmarshal([]byte(m.Body), &resp); err != nil {
			// A malformed response is unroutable; drop it rather than bounce
			// it forever.
			f.w.queues.Delete(ResponseQueue, m.Receipt)
			continue
		}
		ch, wasAbandoned := f.take(resp.ID)
		if ch == nil {
			if wasAbandoned {
				f.w.queues.Delete(ResponseQueue, m.Receipt)
				continue
			}
			// Not registered yet: the processor can finish between
			// SubmitQuery returning and the caller's entry appearing, or the
			// response belongs to someone else entirely. Re-lease it briefly
			// and pick it up on a later pass; releasing it outright would
			// make the oldest-first receive hand it back before any newer
			// response.
			f.w.queues.ChangeVisibility(ResponseQueue, m.Receipt, 100*time.Millisecond)
			continue
		}
		out := &QueryOutcome{ID: resp.ID}
		if _, err := f.w.queues.Delete(ResponseQueue, m.Receipt); err != nil {
			out.Err = err
			ch <- out
			continue
		}
		if resp.Error != "" {
			out.Err = fmt.Errorf("%w: %s", ErrQueryFailed, resp.Error)
			ch <- out
			continue
		}
		obj, _, err := f.w.files.Get(Bucket, resp.ResultKey)
		if err != nil {
			out.Err = err
			ch <- out
			continue
		}
		f.w.ledger.AddEgress(int64(len(obj.Data)))
		result, err := decodeResult(obj.Data)
		if err != nil {
			out.Err = err
		} else {
			out.Result = result
		}
		ch <- out
	}
}
