package chaos

import (
	"context"
	"fmt"
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

	mu       sync.RWMutex
	shardInj map[int]*Injector
}

// WrapStore wraps s with fault injection driven by inj.
func WrapStore(s kv.Store, inj *Injector) *Store {
	return &Store{Store: s, inj: inj}
}

// Unwrap returns the wrapped store.
func (c *Store) Unwrap() kv.Store { return c.Store }

// SetShardInjector installs a per-shard fault plan: operations against
// shard-suffixed physical tables ("T@shard", the naming of kv.Sharded) draw
// their faults from inj instead of the store-wide injector. This lets a
// chaos schedule target one hot partition — the per-shard failure mode real
// DynamoDB exhibits — while other shards stay healthy. Passing a nil
// injector removes the plan. Safe for concurrent use, but plans are normally
// installed before traffic starts so fault schedules stay reproducible.
func (c *Store) SetShardInjector(shard int, inj *Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if inj == nil {
		delete(c.shardInj, shard)
		return
	}
	if c.shardInj == nil {
		c.shardInj = make(map[int]*Injector)
	}
	c.shardInj[shard] = inj
}

// injFor resolves the injector governing an operation on the given
// (possibly shard-suffixed) table name.
func (c *Store) injFor(table string) *Injector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.shardInj) > 0 {
		if _, shard, ok := kv.SplitShardTable(table); ok {
			if inj, ok := c.shardInj[shard]; ok {
				return inj
			}
		}
	}
	return c.inj
}

// Put implements kv.Store with injection.
func (c *Store) Put(table string, item kv.Item) (time.Duration, error) {
	if err := c.injFor(table).kvFault(); err != nil {
		return 0, err
	}
	return c.Store.Put(table, item)
}

// BatchPut implements kv.Store with injection. An injected partial outcome
// applies a strict non-empty prefix of the batch to the underlying store
// and reports the remainder as unprocessed, exactly like BatchWriteItem's
// UnprocessedItems: the caller must resubmit only the remainder.
func (c *Store) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	inj := c.injFor(table)
	if err := inj.kvFault(); err != nil {
		return 0, err
	}
	n := inj.partialCount(len(items))
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

// Get implements kv.Store with injection.
func (c *Store) Get(ctx context.Context, table, hashKey string) ([]kv.Item, time.Duration, error) {
	if err := c.injFor(table).kvFault(); err != nil {
		return nil, 0, err
	}
	return c.Store.Get(ctx, table, hashKey)
}

// BatchGet implements kv.Store with injection. An injected partial outcome
// serves a strict non-empty prefix of the requested keys and reports the
// remainder as unprocessed (UnprocessedKeys): the caller must re-fetch
// only the remainder and merge.
func (c *Store) BatchGet(ctx context.Context, table string, hashKeys []string) (map[string][]kv.Item, time.Duration, error) {
	inj := c.injFor(table)
	if err := inj.kvFault(); err != nil {
		return nil, 0, err
	}
	n := inj.partialCount(len(hashKeys))
	if n >= len(hashKeys) {
		return c.Store.BatchGet(ctx, table, hashKeys)
	}
	out, d, err := c.Store.BatchGet(ctx, table, hashKeys[:n])
	if err != nil {
		return out, d, err
	}
	rest := make([]string, len(hashKeys)-n)
	copy(rest, hashKeys[n:])
	return out, d, &kv.PartialGetError{UnprocessedKeys: rest}
}

// DeleteItem implements kv.Store with injection.
func (c *Store) DeleteItem(table, hashKey, rangeKey string) (time.Duration, error) {
	if err := c.injFor(table).kvFault(); err != nil {
		return 0, err
	}
	return c.Store.DeleteItem(table, hashKey, rangeKey)
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

// DeleteItem implements kv.Store with injection.
func (f *EveryNth) DeleteItem(table, hashKey, rangeKey string) (time.Duration, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Store.DeleteItem(table, hashKey, rangeKey)
}

// Get implements kv.Store with injection.
func (f *EveryNth) Get(ctx context.Context, table, hashKey string) ([]kv.Item, time.Duration, error) {
	if err := f.trip(); err != nil {
		return nil, 0, err
	}
	return f.Store.Get(ctx, table, hashKey)
}

// BatchGet implements kv.Store with injection.
func (f *EveryNth) BatchGet(ctx context.Context, table string, hashKeys []string) (map[string][]kv.Item, time.Duration, error) {
	if err := f.trip(); err != nil {
		return nil, 0, err
	}
	return f.Store.BatchGet(ctx, table, hashKeys)
}
