// Package resilience provides the vtime-deterministic primitives that bound
// a query's read path: a per-query modeled-time Budget (deadline + shared
// retry tokens, carried in a context.Context) and a single-flight Group that
// coalesces concurrent identical index reads.
//
// Everything here operates on MODELED durations — the virtual latencies the
// cloud substrate returns — never on wall-clock time, and draws no
// randomness of its own: all timing variance enters through the seeded
// chaos layer and the stores' latency model. A primitive's behaviour is
// therefore a pure function of the (deterministic) sequence of modeled
// durations and outcomes it observes, which is what lets the differential
// tests demand byte-identical answers and bills across reruns.
package resilience

import (
	"context"
	"errors"
)

// CounterSink receives named counter increments (the obs Registry satisfies
// it; defining it here keeps resilience free of an obs dependency, the same
// pattern kv and chaos use).
type CounterSink interface {
	Add(name string, delta int64)
}

// Counter names streamed to a Group's sink.
const (
	MetricCoalesceHits    = "resilience.coalesce.hits"
	MetricCoalesceLeaders = "resilience.coalesce.leaders"
)

// deadlineError is the modeled-deadline failure. It matches
// context.DeadlineExceeded under errors.Is so callers can treat modeled and
// wall-clock deadlines uniformly.
type deadlineError struct{}

func (deadlineError) Error() string   { return "resilience: modeled query deadline exceeded" }
func (deadlineError) Timeout() bool   { return true }
func (deadlineError) Temporary() bool { return true }
func (deadlineError) Is(target error) bool {
	return target == context.DeadlineExceeded
}

// ErrDeadline reports that a query's modeled-time deadline was exhausted.
// errors.Is(err, context.DeadlineExceeded) is true for it.
var ErrDeadline error = deadlineError{}

// ErrRetryBudget reports that a query's shared retry budget was exhausted:
// some store operation failed transiently and no retry tokens remained.
var ErrRetryBudget = errors.New("resilience: query retry budget exhausted")
