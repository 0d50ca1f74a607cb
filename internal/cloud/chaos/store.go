package chaos

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cloud/kv"
)

// kvFault draws the transient-failure decision for one kv data operation:
// nil, kv.ErrThrottled or kv.ErrInternal.
func (inj *Injector) kvFault() error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.hit(inj.rates.Throttle) {
		inj.note(MetricThrottles)
		return fmt.Errorf("%w (chaos)", kv.ErrThrottled)
	}
	if inj.hit(inj.rates.Internal) {
		inj.note(MetricInternals)
		return fmt.Errorf("%w (chaos)", kv.ErrInternal)
	}
	return nil
}

// partialCount draws the partial-batch decision for a batch of n elements.
// It returns n when the batch should complete, otherwise the number of
// elements to process — at least 1 and strictly less than n, so a retry
// loop that resubmits the remainder always makes progress and terminates.
// Batches of fewer than two elements cannot be partial.
func (inj *Injector) partialCount(n int) int {
	if n < 2 {
		return n
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.hit(inj.rates.PartialBatch) {
		return n
	}
	inj.note(MetricPartialBatches)
	return 1 + inj.rng.Intn(n-1)
}

// Store wraps a kv.Store and injects transient failures and partial batch
// outcomes according to the injector's rates. With all rates zero it is an
// exact pass-through. Table-management and metadata methods are delegated
// untouched via embedding.
type Store struct {
	kv.Store
	inj *Injector
}

// WrapStore wraps s with fault injection driven by inj.
func WrapStore(s kv.Store, inj *Injector) *Store {
	return &Store{Store: s, inj: inj}
}

// Unwrap returns the wrapped store.
func (c *Store) Unwrap() kv.Store { return c.Store }

// Put implements kv.Store with injection.
func (c *Store) Put(table string, item kv.Item) (time.Duration, error) {
	if err := c.inj.kvFault(); err != nil {
		return 0, err
	}
	return c.Store.Put(table, item)
}

// BatchPut implements kv.Store with injection. An injected partial outcome
// applies a strict non-empty prefix of the batch to the underlying store
// and reports the remainder as unprocessed, exactly like BatchWriteItem's
// UnprocessedItems: the caller must resubmit only the remainder.
func (c *Store) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	if err := c.inj.kvFault(); err != nil {
		return 0, err
	}
	n := c.inj.partialCount(len(items))
	if n >= len(items) {
		return c.Store.BatchPut(table, items)
	}
	d, err := c.Store.BatchPut(table, items[:n])
	if err != nil {
		return d, err
	}
	rest := make([]kv.Item, len(items)-n)
	copy(rest, items[n:])
	return d, &kv.PartialPutError{Unprocessed: rest}
}

// Read implements kv.Store with injection. An injected partial outcome
// serves a strict non-empty prefix of the requested keys and reports the
// remainder as unprocessed (UnprocessedKeys): the caller must re-read only
// the remainder.
func (c *Store) Read(ctx context.Context, table string, hashKeys []string, visit kv.Visitor) (time.Duration, error) {
	if err := c.inj.kvFault(); err != nil {
		return 0, err
	}
	n := c.inj.partialCount(len(hashKeys))
	if n >= len(hashKeys) {
		return c.Store.Read(ctx, table, hashKeys, visit)
	}
	d, err := c.Store.Read(ctx, table, hashKeys[:n], visit)
	if err != nil {
		return d, err
	}
	rest := make([]string, len(hashKeys)-n)
	copy(rest, hashKeys[n:])
	return d, &kv.PartialGetError{UnprocessedKeys: rest}
}

// BatchDelete implements kv.Store with injection. An injected partial
// outcome deletes a strict non-empty prefix of the keys and reports the
// remainder as unprocessed, as BatchWriteItem's UnprocessedItems does for
// delete requests: the caller must resubmit only the remainder.
func (c *Store) BatchDelete(table string, keys []kv.Key) (time.Duration, error) {
	if err := c.inj.kvFault(); err != nil {
		return 0, err
	}
	n := c.inj.partialCount(len(keys))
	if n >= len(keys) {
		return c.Store.BatchDelete(table, keys)
	}
	d, err := c.Store.BatchDelete(table, keys[:n])
	if err != nil {
		return d, err
	}
	return d, &kv.PartialDeleteError{Unprocessed: slices.Clone(keys[n:])}
}

// EveryNth wraps a kv.Store and makes every n-th data operation fail with
// a fixed error before reaching the underlying store. Unlike the
// probabilistic Store wrapper it is exactly periodic, which makes retry
// budgets and counters easy to assert in tests. Err selects the failure
// class.
type EveryNth struct {
	kv.Store
	// FailEvery makes operation number k fail whenever k % FailEvery == 0
	// (1-based). Zero disables injection.
	FailEvery int
	// Err is the injected failure (default kv.ErrThrottled).
	Err error

	mu    sync.Mutex
	count int
}

func (f *EveryNth) trip() error {
	if f.FailEvery <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.count%f.FailEvery != 0 {
		return nil
	}
	err := f.Err
	if err == nil {
		err = kv.ErrThrottled
	}
	return fmt.Errorf("%w (injected, op %d)", err, f.count)
}

// Injected reports how many operations have failed so far.
func (f *EveryNth) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.FailEvery <= 0 {
		return 0
	}
	return f.count / f.FailEvery
}

// Put implements kv.Store with injection.
func (f *EveryNth) Put(table string, item kv.Item) (time.Duration, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Store.Put(table, item)
}

// BatchPut implements kv.Store with injection.
func (f *EveryNth) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Store.BatchPut(table, items)
}

// BatchDelete implements kv.Store with injection.
func (f *EveryNth) BatchDelete(table string, keys []kv.Key) (time.Duration, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Store.BatchDelete(table, keys)
}

// Read implements kv.Store with injection.
func (f *EveryNth) Read(ctx context.Context, table string, hashKeys []string, visit kv.Visitor) (time.Duration, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Store.Read(ctx, table, hashKeys, visit)
}
