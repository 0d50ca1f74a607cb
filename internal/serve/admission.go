package serve

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// Limits bounds how many queries the server runs at once and how many wait.
type Limits struct {
	// Workers is how many admitted queries call the backend at once: the
	// number of slots. 0 selects runtime.NumCPU().
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a slot
	// beyond the ones running; an arrival beyond it is shed with 429.
	// 0 selects 4x Workers.
	QueueDepth int
}

func (l Limits) withDefaults() Limits {
	if l.Workers <= 0 {
		l.Workers = runtime.NumCPU()
	}
	if l.QueueDepth <= 0 {
		l.QueueDepth = 4 * l.Workers
	}
	return l
}

// Reject reasons, as reported in 429 and 503 bodies and counted by metrics.
const (
	ReasonQueueFull = "queue_full"
	ReasonDraining  = "draining"
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

// admit counts one more admitted query, or says why it is shed: the server
// is draining, or Workers+QueueDepth queries are already admitted. The
// draining check, the count and the drain's WaitGroup commit under one lock,
// so Shutdown (set draining, then wait) never misses an admitted query.
// Every admission ends in one release.
func (s *Server) admit(tenant string) *Rejection {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return &Rejection{Reason: ReasonDraining, Tenant: tenant, RetryAfter: time.Second}
	}
	if s.admitted >= s.limits.Workers+s.limits.QueueDepth {
		return &Rejection{Reason: ReasonQueueFull, Tenant: tenant, RetryAfter: s.timeout / 4}
	}
	s.admitted++
	s.inflight.Add(1)
	s.reg.Gauge("serve.inflight").Set(int64(s.admitted))
	return nil
}

// release ends one admitted query, run or not.
func (s *Server) release() {
	s.mu.Lock()
	s.admitted--
	s.reg.Gauge("serve.inflight").Set(int64(s.admitted))
	s.mu.Unlock()
	s.inflight.Done()
}

// awaitSlot waits for one of the Workers slots and returns its answer
// buffer; the waiters take them in arrival order. It reports false, holding
// no slot, if ctx ends first: the client has gone, and nothing is sent to
// the backend for it.
func (s *Server) awaitSlot(ctx context.Context) ([]byte, bool) {
	s.reg.Gauge("serve.queue.depth").Add(1)
	defer s.reg.Gauge("serve.queue.depth").Add(-1)
	select {
	case buf := <-s.slots:
		return buf, true
	case <-ctx.Done():
		return nil, false
	}
}
