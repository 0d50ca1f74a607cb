package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/sqs"
	"repro/internal/index"
	"repro/internal/obs"
)

// This file implements the front end's steps (1-3, 7-8 and 16-18 of
// Figure 1) and the live workers of the two modules.

// SubmitDocument stores a document in the file store and enqueues a
// loading request (steps 1-3).
func (w *Warehouse) SubmitDocument(uri string, data []byte) error {
	sp := w.tracer.Start(obs.SpanSubmitDocument)
	sp.SetAttr("uri", uri)
	defer sp.End()
	put, err := w.files.Put(Bucket, DocKey(uri), data, nil)
	if err != nil {
		sp.SetError(err)
		return err
	}
	_, send, err := w.queues.Send(LoaderQueue, uri)
	sp.SetModeled(put + send)
	sp.SetError(err)
	if err == nil {
		w.met.submitDocs.Inc()
	}
	return err
}

// SubmitQuery enqueues a query (steps 7-8) and returns its identifier. The
// response is for whoever collects it: a Frontend only routes the queries
// submitted through it.
func (w *Warehouse) SubmitQuery(queryText string, useIndex bool) (string, error) {
	id := w.nextQueryID()
	if err := w.sendQuery(nil, id, queryText, useIndex); err != nil {
		return "", err
	}
	return id, nil
}

// sendQuery is step 8: send the query message under the ID the caller drew.
// The send's modeled time goes on a "submit.query" span, a root or a child
// of parent, and is added to parent.
func (w *Warehouse) sendQuery(parent *obs.Span, id, queryText string, useIndex bool) error {
	sp := w.tracer.ChildOf(parent, obs.SpanSubmitQuery)
	sp.SetAttr("id", id)
	defer sp.End()
	body, _ := json.Marshal(queryMessage{ID: id, Query: queryText, Strategy: w.Strategy.Name(), NoIndex: !useIndex}) // strings and a bool: cannot fail
	_, send, err := w.queues.Send(QueryQueue, string(body))
	sp.SetModeled(send)
	sp.SetError(err)
	if err == nil {
		parent.AddModeled(send)
		w.met.submitQueries.Inc()
	}
	return err
}

// readResponse decodes a received response message (step 16). A malformed
// one is unroutable and is deleted, not bounced forever (ok is false).
func (w *Warehouse) readResponse(m *sqs.Message) (resp responseMessage, ok bool) {
	if err := json.Unmarshal([]byte(m.Body), &resp); err != nil {
		w.queues.Delete(ResponseQueue, m.Receipt)
		return resp, false
	}
	return resp, true
}

// stepOver is the routing rule for a response its receiver does not await:
// it is another caller's, so it is never deleted, only re-leased briefly and
// found again on a later pass. Releasing it outright would make the
// oldest-first receive hand it straight back.
func (w *Warehouse) stepOver(m *sqs.Message) {
	w.queues.ChangeVisibility(ResponseQueue, m.Receipt, 100*time.Millisecond)
}

// collectResult is steps 16-18 for a response its receiver has claimed:
// delete the message, then fetch the result object, meter its egress and
// return its bytes, a read-only view of the file store's memory. The message
// goes first, so that a failing fetch cannot leave it queued to be paired
// with a later query. The modeled time of the fetch and of recv, the receive
// that delivered the message, goes on a "fetch.results" span carrying the
// query's ID, parented like sendQuery's.
func (w *Warehouse) collectResult(parent *obs.Span, resp responseMessage, receipt string, recv time.Duration) (body []byte, err error) {
	sp := w.tracer.ChildOf(parent, obs.SpanFetchResults)
	sp.SetAttr("id", resp.ID)
	modeled := recv
	defer func() {
		sp.SetError(err)
		sp.SetModeled(modeled)
		sp.End()
		parent.AddModeled(modeled)
	}()
	if _, err = w.queues.Delete(ResponseQueue, receipt); err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("%w: %s", ErrQueryFailed, resp.Error)
	}
	obj, get, err := w.files.Get(Bucket, resp.ResultKey)
	if err != nil {
		return nil, err
	}
	modeled += get
	w.ledger.AddEgress(int64(len(obj.Data)))
	sp.SetAttrInt("bytes", int64(len(obj.Data)))
	return obj.Data, nil
}

// QueryOutcome is what the front end hands back to the user: the result
// object the processor stored at step 14, as fetched at step 17 and never
// decoded. Body is that object's JSON — engine.Result in its tagged wire form,
// {"columns":…,"rows":[{"uri":…,"cols":…},…]} — and is a read-only view of the
// file store's memory, not a copy: a caller must not write into it. Rows is
// the row count the processor's response message carried. Both are zero when
// Err is set.
type QueryOutcome struct {
	ID   string
	Body []byte
	Rows int
	Err  error
}

// Worker is a live module worker bound to one virtual instance.
type Worker struct {
	Instance *ec2.Instance

	stop    chan struct{}
	crashed chan struct{}
	done    sync.WaitGroup

	processed, failures, redelivered atomic.Int64
}

// Processed reports how many messages the worker completed.
func (wk *Worker) Processed() int { return int(wk.processed.Load()) }

// Failures reports how many messages the worker failed on.
func (wk *Worker) Failures() int { return int(wk.failures.Load()) }

// Redeliveries reports how many of the worker's received messages were
// redeliveries (receive count above one) — deliveries absorbed by the
// idempotent write path after crashes, lease expiries or duplicate
// delivery.
func (wk *Worker) Redeliveries() int { return int(wk.redelivered.Load()) }

// Stop drains the worker gracefully: it finishes (and acknowledges) its
// current message, then exits.
func (wk *Worker) Stop() { shutDown(wk.stop, &wk.done) }

// Crash kills the worker abruptly: its current message is neither finished
// nor deleted, so the lease will expire and another worker takes over.
func (wk *Worker) Crash() { shutDown(wk.crashed, &wk.done) }

// shutDown closes a stop signal, unless it is closed already, and waits for
// the goroutine that watches it.
func shutDown(signal chan struct{}, done *sync.WaitGroup) {
	select {
	case <-signal:
	default:
		close(signal)
	}
	done.Wait()
}

func (wk *Worker) stopped() bool {
	select {
	case <-wk.stop:
		return true
	default:
		return wk.crashedNow()
	}
}

// WorkerOptions tunes the live loops.
type WorkerOptions struct {
	// Visibility is the message lease duration; it is renewed at
	// Visibility/2 while processing. Default 2s (tests use shorter).
	Visibility time.Duration
	// Poll is the long-poll duration of an idle worker. Default 100ms.
	Poll time.Duration
	// WorkDelay artificially stretches real processing time (tests use it
	// to exercise lease expiry and crashes mid-flight).
	WorkDelay time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Visibility <= 0 {
		o.Visibility = 2 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	return o
}

// settlement is how a live worker's message ended: processed, failed, or
// dropped — not acknowledged (a crash, a lost lease, a response that could
// not be posted), so that another delivery settles it and this one counts
// as neither.
type settlement uint8

const (
	dropped settlement = iota
	processed
	failed
)

// noteSettled counts a settled message on the worker and in the registry.
func (w *Warehouse) noteSettled(wk *Worker, s settlement) {
	switch s {
	case processed:
		wk.processed.Add(1)
		w.met.workerProcessed.Inc()
	case failed:
		wk.failures.Add(1)
		w.met.workerFailures.Inc()
	}
}

// startWorker runs a live worker's loop on its own goroutine; Stop and Crash
// wait for it to return.
func startWorker(in *ec2.Instance, run func(wk *Worker)) *Worker {
	wk := &Worker{Instance: in, stop: make(chan struct{}), crashed: make(chan struct{})}
	wk.done.Add(1)
	go func() {
		defer wk.done.Done()
		run(wk)
	}()
	return wk
}

// lease is how every live loop takes its next message: one long poll, a
// redelivery counted on the worker and in the registry, the lease renewed
// from here on (release stops that and reports whether the worker has
// crashed), WorkDelay sat out. msg is nil when the poll came back empty,
// which counts as sqs.receive.empty.
func (w *Warehouse) lease(wk *Worker, queue string, opts WorkerOptions) (msg *sqs.Message, rtt time.Duration, release func() (crashed bool)) {
	msg, rtt, err := w.queues.ReceiveWait(queue, opts.Visibility, opts.Poll)
	if err != nil {
		return nil, 0, nil
	}
	if msg == nil {
		w.met.receiveEmpty.Inc()
		return nil, 0, nil
	}
	if msg.ReceiveCount > 1 {
		wk.redelivered.Add(1)
		w.met.workerRedeliveries.Inc()
	}
	release = w.renewLease(wk, queue, msg.Receipt, opts.Visibility)
	if opts.WorkDelay > 0 {
		time.Sleep(opts.WorkDelay)
	}
	return msg, rtt, release
}

// runWorker is the live loop of both modules: lease a message, let handle
// work on it, count how handle settled it. handle does the module's job,
// calls release and only then, unless crashed, acknowledges the message;
// rtt is the receive's modeled time. Only a successful handle deletes a
// message, so a crashed or failing instance's work is redelivered to another
// worker once its lease lapses (the fault-tolerance mechanism of Section 3).
func (w *Warehouse) runWorker(wk *Worker, queue string, opts WorkerOptions,
	handle func(msg *sqs.Message, rtt time.Duration, release func() (crashed bool)) settlement) {
	for !wk.stopped() {
		msg, rtt, release := w.lease(wk, queue, opts)
		if msg == nil {
			continue
		}
		if wk.crashedNow() {
			release()
			return
		}
		w.noteSettled(wk, handle(msg, rtt, release))
	}
}

// StartIndexer launches the indexing module on an instance (steps 4-6).
// With Config.BulkLoad set, the worker accumulates a group of loader
// messages (holding all their leases) and ships their items through a
// cross-document bulk loader; see bulkIndexerLoop.
func (w *Warehouse) StartIndexer(in *ec2.Instance, opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	return startWorker(in, func(wk *Worker) {
		w.store.RegisterClient()
		defer w.store.UnregisterClient()
		if w.bulkLoad {
			w.bulkIndexerLoop(wk, in, opts)
			return
		}
		w.runWorker(wk, LoaderQueue, opts, func(msg *sqs.Message, rtt time.Duration, release func() bool) settlement {
			dsp := w.tracer.Start(obs.SpanIndexDoc)
			dsp.SetAttr("uri", msg.Body)
			defer dsp.End()
			res, err := w.indexDocument(in, msg.Body, dsp)
			if release() {
				return dropped
			}
			if err != nil {
				dsp.SetError(err)
				return failed // not deleted: the lease expires and the message is retried
			}
			if _, err := w.queues.Delete(LoaderQueue, msg.Receipt); err != nil {
				// Lease lost: another worker owns the message now; our
				// index writes are idempotent at the entry level.
				return dropped
			}
			in.Run(rtt + res.ExtractTime + res.UploadTime)
			dsp.SetModeled(rtt + res.ExtractTime + res.UploadTime)
			return processed
		})
	})
}

// heldMessage is one loader message a bulk indexing worker is sitting on:
// extracted, its items in the group's bulk loader, its lease being renewed
// until the group flushes.
type heldMessage struct {
	receipt   string
	rtt       time.Duration
	res       IndexTaskResult
	span      *obs.Span // index.doc root; ended at settle or abandon
	stopRenew func() bool
	settled   bool // deleted (or given up on) before the group flush
}

// bulkIndexerLoop is the live indexing worker in bulk mode. It accumulates
// up to Config.BulkFlushDocs messages per group — extracting each document
// as it arrives and feeding the extraction to a shared BulkLoader, while a
// lease renewer per message keeps the whole group invisible — then closes
// the loader and only deletes a message once its document's items are
// durably flushed. Fault semantics compose with the §5d failure model
// exactly like the per-document worker's:
//
//   - a document the loader completes early (its batches filled) is deleted
//     as soon as Add reports it, shrinking the at-risk window;
//   - an extraction failure skips the document (no delete): its lease
//     expires and the message is redelivered, eventually dead-lettered;
//   - a flush failure abandons the whole group without deleting: every
//     message is redelivered, and the content-derived range keys make the
//     re-extracted writes overwrite whatever part of the batch landed;
//   - a crash stops the renewers mid-group, with the same redelivery path.
//
// An idle receive (nil message) force-flushes a partial group, so held
// messages never outlive the queue's quiet period; a graceful Stop flushes
// the final group on the way out.
func (w *Warehouse) bulkIndexerLoop(wk *Worker, in *ec2.Instance, opts WorkerOptions) {
	var (
		loader *index.BulkLoader
		group  []*heldMessage
	)
	reset := func() {
		loader = index.NewBulkLoader(w.store, index.BulkOptions{Obs: w.reg}, w.cache)
		group = nil
	}
	reset()
	// settle deletes the messages of completed documents, charging the
	// instance for their queue round trips and their share of the modeled
	// work. DocLoads arrive in Add order, which is the group's order.
	next := 0
	settle := func(done []index.DocLoad) {
		for _, dl := range done {
			if next >= len(group) {
				return // defensive; cannot happen with FIFO release
			}
			h := group[next]
			next++
			h.stopRenew()
			h.settled = true
			usp := h.span.Child(obs.SpanUpload)
			usp.SetModeled(dl.Upload)
			usp.End()
			w.met.indexUpload.ObserveModeled(dl.Upload)
			if _, err := w.queues.Delete(LoaderQueue, h.receipt); err != nil {
				// Lease lost: another worker owns the message; our writes
				// are idempotent, so its redelivery converges.
				h.span.End()
				continue
			}
			in.Run(h.rtt + h.res.ExtractTime + dl.Upload)
			h.span.SetModeled(h.rtt + h.res.ExtractTime + dl.Upload)
			h.span.End()
			w.noteSettled(wk, processed)
		}
	}
	abandon := func() {
		for _, h := range group {
			if !h.settled {
				h.stopRenew()
				h.span.End()
				w.noteSettled(wk, failed)
			}
		}
		reset()
		next = 0
	}
	flushGroup := func() {
		if len(group) == 0 {
			return
		}
		done, err := loader.Close()
		settle(done)
		if err != nil {
			abandon() // unsettled messages redeliver; writes are idempotent
			return
		}
		reset()
		next = 0
	}
	defer func() {
		// On a crash the renewers have already quit (they watch wk.crashed)
		// and the leases lapse; on a graceful stop the group below was
		// flushed and this is a no-op.
		for _, h := range group {
			if !h.settled {
				h.stopRenew()
			}
		}
	}()
	for !wk.stopped() {
		msg, rtt, stopRenew := w.lease(wk, LoaderQueue, opts)
		if msg == nil {
			flushGroup() // idle: do not sit on held leases
			continue
		}
		dsp := w.tracer.Start(obs.SpanIndexDoc)
		dsp.SetAttr("uri", msg.Body)
		if wk.crashedNow() {
			stopRenew()
			dsp.End()
			return
		}
		res, ex, _, err := w.extractDocument(in, msg.Body, dsp)
		if wk.crashedNow() {
			stopRenew()
			dsp.End()
			return
		}
		if err != nil {
			stopRenew()
			dsp.SetError(err)
			dsp.End()
			w.noteSettled(wk, failed)
			continue // lease will expire; the message is retried
		}
		group = append(group, &heldMessage{receipt: msg.Receipt, rtt: rtt, res: res, span: dsp, stopRenew: stopRenew})
		done, err := loader.Add(ex)
		settle(done)
		if wk.crashedNow() {
			return
		}
		if err != nil {
			abandon()
			continue
		}
		if len(group) >= w.bulkDocsLimit() {
			flushGroup()
		}
	}
	if !wk.crashedNow() {
		flushGroup() // graceful stop: ship what we hold
	}
}

// StartQueryProcessor launches the query-processor module on an instance
// (steps 9-15); the queue round trips are not charged to the instance.
func (w *Warehouse) StartQueryProcessor(in *ec2.Instance, opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	return startWorker(in, func(wk *Worker) {
		w.runWorker(wk, QueryQueue, opts, func(msg *sqs.Message, _ time.Duration, release func() bool) settlement {
			root := w.tracer.Start(obs.SpanQuery)
			resp, _ := w.answerQuery(in, msg.Body, root, nil)
			root.End()
			if release() || w.postResponse(resp, msg.Receipt) != nil {
				return dropped
			}
			if resp.Error != "" {
				return failed // answered and consumed all the same
			}
			return processed
		})
	})
}

func (wk *Worker) crashedNow() bool {
	select {
	case <-wk.crashed:
		return true
	default:
		return false
	}
}

// renewLease keeps a message invisible while the worker processes it,
// renewing at half the visibility period. The returned function stops the
// renewal loop and reports whether the worker has crashed.
func (w *Warehouse) renewLease(wk *Worker, queue, receipt string, visibility time.Duration) func() (crashed bool) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(visibility / 2)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-wk.crashed:
				return // a crashed instance stops renewing: the lease expires
			case <-t.C:
				if _, err := w.queues.ChangeVisibility(queue, receipt, visibility); err != nil {
					return
				}
				w.met.leaseRenewals.Inc()
			}
		}
	}()
	var once sync.Once
	return func() bool {
		once.Do(func() {
			close(stop)
			wg.Wait()
		})
		return wk.crashedNow()
	}
}
