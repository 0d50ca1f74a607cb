package resilience

import (
	"context"
	"sync/atomic"
	"time"
)

// Budget is a per-query modeled-time deadline plus a shared retry-token
// pool. The query pipeline charges every modeled store duration it consumes
// against the budget; once the charges reach the deadline the remaining
// work is cut short with ErrDeadline. Retry tokens replace the per-call
// attempt cap of kv.Retry: every retry anywhere under the query draws from
// the same pool, so one flaky shard cannot multiply the query's worst-case
// latency by MaxAttempts at every call site.
//
// All methods are safe on a nil *Budget (no deadline, unlimited retries),
// so call sites need no guards. Charging is atomic; on strictly sequential
// paths the deadline cut is fully deterministic, and under concurrent
// fan-out it is deterministic up to the (modeled-time) interleaving of the
// charges — the differential tests pin concurrency where exactness matters.
type Budget struct {
	deadline time.Duration // modeled; 0 = no deadline
	spent    atomic.Int64  // nanoseconds charged so far
	retries  atomic.Int64  // tokens remaining; < 0 = unlimited
}

// NewBudget returns a budget with the given modeled deadline (0 = none)
// and retry-token pool (negative = unlimited).
func NewBudget(deadline time.Duration, retryTokens int) *Budget {
	b := &Budget{deadline: deadline}
	b.retries.Store(int64(retryTokens))
	return b
}

// Charge records d of consumed modeled time.
func (b *Budget) Charge(d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	b.spent.Add(int64(d))
}

// Headroom returns the modeled time still available after accounting for
// pending (time consumed by the caller but not yet Charged). ok is false
// when no deadline is set — the caller must not cut work short then.
func (b *Budget) Headroom(pending time.Duration) (rem time.Duration, ok bool) {
	if b == nil || b.deadline <= 0 {
		return 0, false
	}
	rem = b.deadline - time.Duration(b.spent.Load()) - pending
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// Exhausted reports whether the deadline is already spent given pending
// uncharged time. Always false without a deadline.
func (b *Budget) Exhausted(pending time.Duration) bool {
	rem, ok := b.Headroom(pending)
	return ok && rem <= 0
}

// TakeRetry consumes one retry token, reporting false when the pool is
// empty. A nil budget or a negative pool is unlimited.
func (b *Budget) TakeRetry() bool {
	if b == nil {
		return true
	}
	for {
		n := b.retries.Load()
		if n < 0 {
			return true
		}
		if n == 0 {
			return false
		}
		if b.retries.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

type budgetKey struct{}

// NewContext returns a context carrying the budget. The query processor
// installs one per query; everything below retrieves it with FromContext.
func NewContext(ctx context.Context, b *Budget) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// FromContext returns the context's budget, or nil (a no-op budget) when
// absent. A nil context is treated as background.
func FromContext(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}
