// Package serve implements the query-serving daemon: an HTTP/JSON API over
// the warehouse's frontend/processor pipeline with an admission-control
// layer in front of a bounded scheduler pool.
//
// The admission pipeline of one request:
//
//	POST /query -> per-tenant quota (token-bucket QPS + in-flight cap)
//	            -> bounded FIFO queue (shed with 429 + Retry-After when full)
//	            -> scheduler pool (Limits.Workers goroutines)
//	            -> Backend.Do (live query processors via core.Frontend)
//	            -> JSON response
//
// Shedding is always explicit: a rejected request gets a 429 (503 while
// draining) with a machine-readable reason and a Retry-After hint, and is
// counted in the serve.* metrics — requests are never dropped silently.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
)

// Limits bounds what the admission layer lets through to the scheduler.
type Limits struct {
	// Workers is the scheduler pool size — how many admitted queries run
	// concurrently. 0 selects runtime.NumCPU().
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// beyond the ones running; an arrival beyond it is shed with 429.
	// 0 selects 4x Workers.
	QueueDepth int

	// TenantQPS is the sustained per-tenant admission rate: each tenant
	// owns a token bucket refilled at this rate, and a request needs one
	// token. 0 disables rate quotas.
	TenantQPS float64
	// TenantBurst is the bucket capacity (how far a tenant may burst above
	// the sustained rate). 0 selects ceil(2*TenantQPS), at least 1.
	TenantBurst int
	// TenantInflight caps how many of one tenant's requests may be
	// admitted-but-unfinished at once, so a single tenant can never occupy
	// the whole pool plus queue. 0 disables in-flight quotas.
	TenantInflight int
}

func (l Limits) withDefaults() Limits {
	if l.Workers <= 0 {
		l.Workers = runtime.NumCPU()
	}
	if l.QueueDepth <= 0 {
		l.QueueDepth = 4 * l.Workers
	}
	if l.TenantQPS > 0 && l.TenantBurst <= 0 {
		l.TenantBurst = int(2*l.TenantQPS + 0.999)
		if l.TenantBurst < 1 {
			l.TenantBurst = 1
		}
	}
	return l
}

// Reject reasons, as reported in 429 bodies and counted by metrics.
const (
	ReasonQueueFull     = "queue_full"
	ReasonQuotaRate     = "quota_rate"
	ReasonQuotaInflight = "quota_inflight"
	ReasonDraining      = "draining"
)

// Rejection is a shed admission attempt.
type Rejection struct {
	Reason     string
	Tenant     string
	RetryAfter time.Duration
}

// Error makes a Rejection usable as an error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("serve: %s rejected (%s), retry after %s", r.Tenant, r.Reason, r.RetryAfter)
}

// tenantBucket is one tenant's quota state.
type tenantBucket struct {
	tokens   float64
	last     time.Time
	inflight int
}

// Admission applies the per-tenant quotas. The queue bound itself is
// enforced by the server's bounded channel; Admit/Refund bracket the
// enqueue attempt so a queue-full shed returns the tenant's token.
//
// A tenant has a bucket only while it differs from a fresh one: with no
// quota configured no bucket is made, and a bucket with nothing in flight
// that has refilled to the burst is dropped. The X-Tenant header is the
// client's to choose, so the map must not grow with the values it sends.
type Admission struct {
	limits Limits
	clock  clock.Clock // refills the token buckets

	mu       sync.Mutex
	tenants  map[string]*tenantBucket
	inflight int
	swept    time.Time // when idle buckets were last dropped
}

// newAdmission builds the quota layer, refilling its buckets by clk.
func newAdmission(limits Limits, clk clock.Clock) *Admission {
	return &Admission{limits: limits.withDefaults(), clock: clk, tenants: make(map[string]*tenantBucket)}
}

// Limits returns the effective (default-resolved) limits.
func (a *Admission) Limits() Limits { return a.limits }

// quotas reports whether any per-tenant quota is configured.
func (a *Admission) quotas() bool {
	return a.limits.TenantQPS > 0 || a.limits.TenantInflight > 0
}

// refill credits tb with the tokens accrued since its last refill, up to
// the burst.
func (a *Admission) refill(tb *tenantBucket, now time.Time) {
	tb.tokens += now.Sub(tb.last).Seconds() * a.limits.TenantQPS
	if cap := float64(a.limits.TenantBurst); tb.tokens > cap {
		tb.tokens = cap
	}
	tb.last = now
}

// idle reports whether tb is indistinguishable from a fresh bucket at now:
// nothing in flight and, under a rate quota, refilled to the burst.
func (a *Admission) idle(tb *tenantBucket, now time.Time) bool {
	if tb.inflight > 0 {
		return false
	}
	return a.limits.TenantQPS == 0 ||
		tb.tokens+now.Sub(tb.last).Seconds()*a.limits.TenantQPS >= float64(a.limits.TenantBurst)
}

// sweep drops every idle bucket, at most once per refill period (the time
// an empty bucket takes to refill to the burst), so the cost is amortised
// over the admissions that made the buckets. Without a rate quota a bucket
// is dropped as soon as it goes idle, and there is nothing to sweep.
func (a *Admission) sweep(now time.Time) {
	if a.limits.TenantQPS == 0 {
		return
	}
	period := time.Duration(float64(a.limits.TenantBurst) / a.limits.TenantQPS * float64(time.Second))
	if now.Sub(a.swept) < period {
		return
	}
	a.swept = now
	for tenant, tb := range a.tenants {
		if a.idle(tb, now) {
			delete(a.tenants, tenant)
		}
	}
}

// Admit accounts one request for the tenant, or explains why it is shed.
// Every successful Admit must be paired with exactly one Release (after
// the query finishes) or Refund (if it was never enqueued).
func (a *Admission) Admit(tenant string) *Rejection {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.quotas() {
		a.inflight++
		return nil
	}
	now := a.clock.Now()
	a.sweep(now)
	tb := a.tenants[tenant]
	if tb == nil {
		tb = &tenantBucket{tokens: float64(a.limits.TenantBurst), last: now}
		a.tenants[tenant] = tb
	}
	if a.limits.TenantInflight > 0 && tb.inflight >= a.limits.TenantInflight {
		return &Rejection{Reason: ReasonQuotaInflight, Tenant: tenant, RetryAfter: time.Second}
	}
	if a.limits.TenantQPS > 0 {
		a.refill(tb, now)
		if tb.tokens < 1 {
			wait := time.Duration((1 - tb.tokens) / a.limits.TenantQPS * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			return &Rejection{Reason: ReasonQuotaRate, Tenant: tenant, RetryAfter: wait}
		}
		tb.tokens--
	}
	tb.inflight++
	a.inflight++
	return nil
}

// Release ends one admitted request (it ran, successfully or not).
func (a *Admission) Release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.forget(tenant, a.release(tenant))
}

// Refund undoes an Admit whose request never reached the queue: the
// in-flight slot is released and the rate token handed back (a queue-full
// shed should not also burn the tenant's quota).
func (a *Admission) Refund(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tb := a.release(tenant)
	if tb != nil && a.limits.TenantQPS > 0 {
		tb.tokens++
		if cap := float64(a.limits.TenantBurst); tb.tokens > cap {
			tb.tokens = cap
		}
	}
	a.forget(tenant, tb)
}

// release frees one of the tenant's in-flight slots and returns its bucket
// (nil when it has none).
func (a *Admission) release(tenant string) *tenantBucket {
	if !a.quotas() {
		if a.inflight > 0 {
			a.inflight--
		}
		return nil
	}
	tb := a.tenants[tenant]
	if tb != nil && tb.inflight > 0 {
		tb.inflight--
		a.inflight--
	}
	return tb
}

// forget drops the tenant's bucket once it is idle.
func (a *Admission) forget(tenant string, tb *tenantBucket) {
	if tb != nil && a.idle(tb, a.clock.Now()) {
		delete(a.tenants, tenant)
	}
}

// Inflight reports the admitted-but-unfinished request count across all
// tenants.
func (a *Admission) Inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}
