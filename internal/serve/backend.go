package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
)

// Backend executes one admitted query to completion. The production
// implementation is WarehouseBackend; tests substitute fakes to make
// queueing and shedding deterministic.
type Backend interface {
	// Do runs the query and returns its outcome. A non-nil error means the
	// serving machinery failed (timeout, closed backend); a query-level
	// failure travels inside QueryOutcome.Err.
	Do(queryText string, useIndex bool, timeout time.Duration) (*core.QueryOutcome, error)
	// Close drains the backend: processors finish their current work, then
	// stop.
	Close() error
}

// WriteBackend is the optional mutation surface of a Backend: a backend
// implementing it accepts document updates and removals alongside queries.
// The server mounts /document only when the backend both implements the
// interface and reports Writable.
type WriteBackend interface {
	// Writable reports whether mutations are accepted (for the warehouse
	// backend: whether the warehouse runs a mutable corpus).
	Writable() bool
	// Update atomically replaces one document's content and index
	// contribution.
	Update(uri string, data []byte) error
	// Remove deletes one document and supersedes its index contribution.
	Remove(uri string) error
}

// WarehouseBackend serves queries over a live processor fleet: n query
// processors polling the warehouse queues (step 9 of Figure 1), plus one
// core.Frontend dispatching responses back to callers by query ID. When the
// warehouse runs a mutable corpus the backend also accepts writes, executed
// on a dedicated instance: queries in flight keep their pinned snapshot, so
// writes never change an answer mid-query.
type WarehouseBackend struct {
	w        *core.Warehouse
	frontend *core.Frontend
	workers  []*core.Worker

	writeMu sync.Mutex // serializes mutations on the write instance
	writeIn *ec2.Instance
}

// NewWarehouseBackend launches n query processors on fresh instances of the
// given type and starts the response dispatcher. The warehouse must already
// be loaded (and indexed, if queries will use the index).
func NewWarehouseBackend(w *core.Warehouse, n int, typ ec2.InstanceType, opts core.WorkerOptions) *WarehouseBackend {
	if n < 1 {
		n = 1
	}
	b := &WarehouseBackend{w: w, frontend: core.NewFrontend(w)}
	for i := 0; i < n; i++ {
		b.workers = append(b.workers, w.StartQueryProcessor(ec2.Launch(w.Ledger(), typ), opts))
	}
	if w.Corpus() != nil {
		b.writeIn = ec2.Launch(w.Ledger(), typ)
	}
	return b
}

// Writable implements WriteBackend: true when the warehouse runs a mutable
// corpus.
func (b *WarehouseBackend) Writable() bool { return b.writeIn != nil }

// Update implements WriteBackend over core.Warehouse.UpdateDocument.
func (b *WarehouseBackend) Update(uri string, data []byte) error {
	if b.writeIn == nil {
		return fmt.Errorf("serve: warehouse corpus is immutable")
	}
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	return b.w.UpdateDocument(b.writeIn, uri, data)
}

// Remove implements WriteBackend over core.Warehouse.RemoveDocument.
func (b *WarehouseBackend) Remove(uri string) error {
	if b.writeIn == nil {
		return fmt.Errorf("serve: warehouse corpus is immutable")
	}
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	return b.w.RemoveDocument(b.writeIn, uri)
}

// Do submits the query and waits up to timeout for its routed response.
func (b *WarehouseBackend) Do(queryText string, useIndex bool, timeout time.Duration) (*core.QueryOutcome, error) {
	return b.frontend.Do(queryText, useIndex, timeout)
}

// Workers reports the processor count.
func (b *WarehouseBackend) Workers() int { return len(b.workers) }

// Close stops the processors (each finishes its in-flight query) and then
// the dispatcher.
func (b *WarehouseBackend) Close() error {
	for _, wk := range b.workers {
		wk.Stop()
	}
	b.frontend.Close()
	return nil
}

var (
	_ Backend      = (*WarehouseBackend)(nil)
	_ WriteBackend = (*WarehouseBackend)(nil)
)
