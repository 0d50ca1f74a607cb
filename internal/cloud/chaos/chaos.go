// Package chaos is a seeded, deterministic fault-injection layer for the
// simulated cloud substrate. It wraps the three services the warehouse
// depends on — the key-value index store (kv.Store), the message queues
// (sqs.Service) and the file store (s3.Service) — and injects the failure
// modes the real services exhibit but a naive simulation omits:
//
//   - kv: throttling (ErrThrottled), transient internal errors
//     (ErrInternal), and DynamoDB-style partial batch outcomes — a
//     BatchPut lands a strict subset of its items and reports the rest as
//     unprocessed (BatchWriteItem's UnprocessedItems); a Read serves a
//     strict subset of its keys (UnprocessedKeys);
//   - sqs: at-least-once delivery — a received message is made visible
//     again immediately (duplicate delivery) or its lease is silently cut
//     short so it expires mid-task (forced visibility expiry);
//   - s3: transient Get/Put/Delete failures (ErrTransient).
//
// All decisions are drawn from one PRNG seeded by Plan.Seed, behind a
// single Injector shared by the wrappers, so a run is reproducible: the
// same seed and the same service-call order yield the same fault
// placement. (Under live concurrent workers the call order — and hence the
// placement — depends on scheduling; the invariants the chaos suite checks
// are scheduling-independent.) With all rates zero every wrapper is an
// exact pass-through: no extra requests, no metering difference, no PRNG
// draws.
package chaos

import (
	"math/rand"
	"sync"
)

// Rates sets per-operation fault probabilities, each in [0, 1].
type Rates struct {
	// Throttle fails a kv data operation with kv.ErrThrottled.
	Throttle float64
	// Internal fails a kv data operation with kv.ErrInternal.
	Internal float64
	// PartialBatch makes a kv batch operation of n ≥ 2 elements land a
	// strict non-empty subset and report the remainder unprocessed.
	PartialBatch float64
	// DupDeliver releases a just-delivered queue message back to visible,
	// so another receiver gets a duplicate delivery.
	DupDeliver float64
	// ExpireLease cuts a just-granted message lease to a fraction of the
	// requested visibility, forcing expiry mid-task.
	ExpireLease float64
	// S3Transient fails a file-store Get/Put/Delete with s3.ErrTransient.
	S3Transient float64
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func (r Rates) clamped() Rates {
	r.Throttle = clamp01(r.Throttle)
	r.Internal = clamp01(r.Internal)
	r.PartialBatch = clamp01(r.PartialBatch)
	r.DupDeliver = clamp01(r.DupDeliver)
	r.ExpireLease = clamp01(r.ExpireLease)
	r.S3Transient = clamp01(r.S3Transient)
	return r
}

// Plan describes one reproducible chaos configuration.
type Plan struct {
	// Seed drives every injection decision.
	Seed int64
	// Rates are the per-operation fault probabilities.
	Rates Rates
}

// CounterSink receives every injected fault as a named counter increment;
// the injector keeps no tally of its own. The obs Registry satisfies it;
// defining the interface here keeps this package free of an obs dependency.
type CounterSink interface {
	Add(name string, delta int64)
}

// Counter names streamed to a CounterSink, one per fault class.
const (
	MetricThrottles      = "chaos.throttles"
	MetricInternals      = "chaos.internals"
	MetricPartialBatches = "chaos.partial_batches"
	MetricDupDeliveries  = "chaos.dup_deliveries"
	MetricExpiredLeases  = "chaos.expired_leases"
	MetricS3Faults       = "chaos.s3_faults"
)

// Injector is the seeded decision source shared by the wrappers of one
// plan. It is safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates Rates
	sink  CounterSink
}

// NewInjector builds the shared decision source of a plan. Rates outside
// [0, 1] are clamped.
func NewInjector(p Plan) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(p.Seed)), rates: p.Rates.clamped()}
}

// SetRates replaces the fault rates — e.g. zero everything to quiesce the
// chaos layer after a load phase, without unwrapping the services.
func (inj *Injector) SetRates(r Rates) {
	inj.mu.Lock()
	inj.rates = r.clamped()
	inj.mu.Unlock()
}

// SetSink streams every future injected fault to sink (pass nil to stop).
// The warehouse points this at its obs Registry, so the injected fault
// counters appear in the unified metrics surface.
func (inj *Injector) SetSink(s CounterSink) {
	inj.mu.Lock()
	inj.sink = s
	inj.mu.Unlock()
}

// note increments a sink counter for one injected fault. Must be called
// with inj.mu held (the sink's own synchronization is independent).
func (inj *Injector) note(metric string) {
	if inj.sink != nil {
		inj.sink.Add(metric, 1)
	}
}

// hit draws one decision at probability rate. Zero rates draw nothing, so
// a zero-rate wrapper consumes no PRNG state and stays bit-compatible with
// an unwrapped run. Must be called with inj.mu held.
func (inj *Injector) hit(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return inj.rng.Float64() < rate
}
