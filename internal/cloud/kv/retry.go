package kv

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Retry wraps a store so that transient data-operation failures (throttling
// and internal errors) are retried with capped, jittered exponential
// backoff, and DynamoDB-style partial batch outcomes (PartialPutError,
// PartialDeleteError, PartialGetError) are completed by resubmitting only
// the unprocessed remainder. The backoff is charged as modeled latency on
// the returned duration, so retries cost virtual-machine time exactly like
// they would on EC2. Non-transient errors pass through unchanged.
//
// Backoff uses seeded full jitter: the wait before attempt k is uniform in
// (0, min(BaseBackoff<<k, MaxBackoff)], drawn from a PRNG seeded with Seed,
// so concurrent clients sharing a saturated store do not retry in lockstep
// while modeled times stay deterministic for a given seed and call order.
type Retry struct {
	Store
	// MaxAttempts bounds the tries per operation (default 5). A partial
	// batch outcome that made progress (some items landed / some keys were
	// served) refreshes the budget: only consecutive zero-progress attempts
	// count against it, and batches shrink monotonically, so termination is
	// still guaranteed.
	MaxAttempts int
	// BaseBackoff is the cap of the first retry's wait, doubled per attempt
	// (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one wait (default 5s). The doubling stops at the cap,
	// so large MaxAttempts cannot overflow the shift.
	MaxBackoff time.Duration
	// Seed drives the jitter PRNG; retries of distinct Retry values with
	// the same seed draw identical jitter sequences.
	Seed int64
	// Sink, when non-nil, receives every counter increment as a named
	// metric (the kv.Metric* constants). The warehouse points it at its obs
	// Registry. Set before the wrapper is shared; reads are unsynchronized.
	Sink CounterSink

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand

	stats retryCounters
}

// CounterSink receives named counter increments (the obs Registry satisfies
// it; defining it here keeps kv free of an obs dependency).
type CounterSink interface {
	Add(name string, delta int64)
}

// Counter names streamed to a Retry's Sink, one per RetryStats field.
const (
	MetricRetries          = "kv.retry.retries"
	MetricRetryThrottles   = "kv.retry.throttles"
	MetricRetryInternal    = "kv.retry.internal"
	MetricPartialBatches   = "kv.retry.partial_batches"
	MetricItemsResubmitted = "kv.retry.items_resubmitted"
	MetricKeysRefetched    = "kv.retry.keys_refetched"
	MetricGaveUp           = "kv.retry.gave_up"
)

// bump increments one counter and mirrors it into the sink.
func (r *Retry) bump(c *atomic.Int64, metric string, delta int64) {
	c.Add(delta)
	if r.Sink != nil {
		r.Sink.Add(metric, delta)
	}
}

// RetryStats is a snapshot of a Retry wrapper's degradation counters.
type RetryStats struct {
	// Retries counts attempts beyond the first across all operations.
	Retries int64
	// Throttles and Internal split the transient failures observed.
	Throttles int64
	Internal  int64
	// PartialBatches counts partial batch outcomes absorbed;
	// ItemsResubmitted (items put and keys deleted) and KeysRefetched the
	// remainder sizes resubmitted.
	PartialBatches   int64
	ItemsResubmitted int64
	KeysRefetched    int64
	// GaveUp counts operations that exhausted their attempts.
	GaveUp int64
}

type retryCounters struct {
	retries, throttles, internal           atomic.Int64
	partialBatches, itemsResub, keysRefetc atomic.Int64
	gaveUp                                 atomic.Int64
}

// RetryStats returns a snapshot of the wrapper's cumulative counters.
func (r *Retry) RetryStats() RetryStats {
	return RetryStats{
		Retries:          r.stats.retries.Load(),
		Throttles:        r.stats.throttles.Load(),
		Internal:         r.stats.internal.Load(),
		PartialBatches:   r.stats.partialBatches.Load(),
		ItemsResubmitted: r.stats.itemsResub.Load(),
		KeysRefetched:    r.stats.keysRefetc.Load(),
		GaveUp:           r.stats.gaveUp.Load(),
	}
}

// Unwrap exposes the wrapped store so capability probes (AsDumper) can walk
// the stack.
func (r *Retry) Unwrap() Store { return r.Store }

// RetryStatsSource is implemented by stores that can report retry
// degradation counters (the Retry wrapper); look-up code uses it to
// attribute store retries to LookupStats.
type RetryStatsSource interface {
	RetryStats() RetryStats
}

// NewRetry wraps a store with the default policy.
func NewRetry(s Store) *Retry {
	return &Retry{Store: s, MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 5 * time.Second, Seed: 1}
}

func (r *Retry) attempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 5
}

// backoff returns the jittered wait before retry number attempt (0-based).
func (r *Retry) backoff(attempt int) time.Duration {
	base := r.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := r.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	if base > max {
		base = max
	}
	// Double up to the cap; stopping at the cap keeps the shift from
	// overflowing for large attempt counts.
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	r.rngOnce.Do(func() { r.rng = rand.New(rand.NewSource(r.Seed)) })
	r.rngMu.Lock()
	j := r.rng.Int63n(int64(d))
	r.rngMu.Unlock()
	return time.Duration(j) + 1 // full jitter in (0, d]
}

// classify tallies a transient failure.
func (r *Retry) classify(err error) {
	switch {
	case errors.Is(err, ErrThrottled):
		r.bump(&r.stats.throttles, MetricRetryThrottles, 1)
	case errors.Is(err, ErrInternal):
		r.bump(&r.stats.internal, MetricRetryInternal, 1)
	}
}

// retry runs op until it succeeds, fails hard, or exhausts attempts,
// accumulating modeled latency across attempts. A cancelled context returns
// immediately: in particular, a failure observed after cancellation does
// NOT charge or complete the pending backoff wait. Writes pass
// context.Background(): the loop is then bounded by MaxAttempts alone.
func (r *Retry) retry(ctx context.Context, op func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		d, err := op()
		total += d
		if err == nil {
			return total, nil
		}
		if !IsTransient(err) {
			return total, err
		}
		r.classify(err)
		if attempt+1 >= r.attempts() {
			r.bump(&r.stats.gaveUp, MetricGaveUp, 1)
			return total, err
		}
		// Mid-backoff cancellation: return now, charging none of the wait.
		if err := ctx.Err(); err != nil {
			return total, err
		}
		r.bump(&r.stats.retries, MetricRetries, 1)
		total += r.backoff(attempt)
	}
}

// Put implements Store with retries.
func (r *Retry) Put(table string, item Item) (time.Duration, error) {
	return r.retry(context.Background(), func() (time.Duration, error) { return r.Store.Put(table, item) })
}

// BatchPut implements Store with retries (see retryBatch).
func (r *Retry) BatchPut(table string, items []Item) (time.Duration, error) {
	return retryBatch(r, items,
		func(batch []Item) (time.Duration, error) { return r.Store.BatchPut(table, batch) },
		func(err error) ([]Item, bool) {
			var pe *PartialPutError
			if errors.As(err, &pe) {
				return pe.Unprocessed, true
			}
			return nil, false
		})
}

// BatchDelete implements Store with retries (see retryBatch).
func (r *Retry) BatchDelete(table string, keys []Key) (time.Duration, error) {
	return retryBatch(r, keys,
		func(batch []Key) (time.Duration, error) { return r.Store.BatchDelete(table, batch) },
		func(err error) ([]Key, bool) {
			var pe *PartialDeleteError
			if errors.As(err, &pe) {
				return pe.Unprocessed, true
			}
			return nil, false
		})
}

// retryBatch runs a batch write until it lands whole. A partial outcome,
// whose remainder unprocessed extracts from the error, resubmits only that
// remainder; progress refreshes the attempt budget.
func retryBatch[T any](r *Retry, batch []T, write func([]T) (time.Duration, error), unprocessed func(error) ([]T, bool)) (time.Duration, error) {
	var total time.Duration
	pending := batch
	for attempt := 0; ; {
		d, err := write(pending)
		total += d
		if err == nil {
			return total, nil
		}
		if rest, partial := unprocessed(err); partial {
			r.bump(&r.stats.partialBatches, MetricPartialBatches, 1)
			r.bump(&r.stats.itemsResub, MetricItemsResubmitted, int64(len(rest)))
			if len(rest) < len(pending) {
				attempt = 0 // progress refreshes the budget
			} else {
				attempt++
			}
			pending = rest
		} else if IsTransient(err) {
			r.classify(err)
			attempt++
		} else {
			return total, err
		}
		if attempt >= r.attempts() {
			r.bump(&r.stats.gaveUp, MetricGaveUp, 1)
			return total, err
		}
		r.bump(&r.stats.retries, MetricRetries, 1)
		total += r.backoff(attempt)
	}
}

// Read implements Store with retries. A partial outcome re-reads only the
// unprocessed keys, so the visitor sees each key once; progress refreshes
// the attempt budget. Cancellation semantics match retry.
func (r *Retry) Read(ctx context.Context, table string, hashKeys []string, visit Visitor) (time.Duration, error) {
	var total time.Duration
	pending := hashKeys
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		d, err := r.Store.Read(ctx, table, pending, visit)
		total += d
		if err == nil {
			return total, nil
		}
		var pe *PartialGetError
		switch {
		case errors.As(err, &pe):
			r.bump(&r.stats.partialBatches, MetricPartialBatches, 1)
			r.bump(&r.stats.keysRefetc, MetricKeysRefetched, int64(len(pe.UnprocessedKeys)))
			if len(pe.UnprocessedKeys) < len(pending) {
				attempt = 0 // progress refreshes the budget
			} else {
				attempt++
			}
			pending = pe.UnprocessedKeys
		case IsTransient(err):
			r.classify(err)
			attempt++
		default:
			return total, err
		}
		if attempt >= r.attempts() {
			r.bump(&r.stats.gaveUp, MetricGaveUp, 1)
			return total, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return total, cerr
		}
		r.bump(&r.stats.retries, MetricRetries, 1)
		total += r.backoff(attempt)
	}
}
