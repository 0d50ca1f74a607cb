package resilience

import (
	"sync"
	"time"
)

// Group coalesces concurrent identical work: when several goroutines Do the
// same key at once, one of them (the leader) runs the function and every
// other (the followers) blocks until the leader finishes, then shares the
// leader's value, modeled duration, and error. The index layer keys chunks
// of posting reads by (table, kind, keys) so a cache-fill stampede — N
// queries missing on the same hot posting simultaneously — issues ONE
// billed store request instead of N, and every waiter receives the leader's
// parsed blocked structure.
//
// Calls that do not overlap in wall time never coalesce (the key is
// forgotten as soon as the leader finishes), so coalescing only removes
// duplicate in-flight requests; it is not a cache.
type Group struct {
	// Sink, when non-nil, receives the coalesce counters
	// (MetricCoalesceHits / MetricCoalesceLeaders). Set before sharing.
	Sink CounterSink

	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	wg      sync.WaitGroup
	waiters int // followers attached; guarded by Group.mu
	val     any
	dur     time.Duration
	err     error
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{} }

// Waiting reports how many followers are currently blocked on key's
// in-flight call (0 when none is in flight). Tests use it to release a
// gated leader only once its followers have attached, making coalescing
// assertions deterministic.
func (g *Group) Waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}

func (g *Group) bump(metric string) {
	if g.Sink != nil {
		g.Sink.Add(metric, 1)
	}
}

// Do runs fn under key, coalescing with any identical in-flight call.
// It returns fn's value, its modeled duration, whether THIS call was the
// leader (the one that executed fn and should be billed), and fn's error.
// A nil *Group executes fn directly as a leader.
func (g *Group) Do(key string, fn func() (any, time.Duration, error)) (v any, d time.Duration, leader bool, err error) {
	if g == nil {
		v, d, err = fn()
		return v, d, true, err
	}
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		c.wg.Wait()
		g.bump(MetricCoalesceHits)
		return c.val, c.dur, false, c.err
	}
	c := new(flightCall)
	c.wg.Add(1)
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.dur, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	g.bump(MetricCoalesceLeaders)
	return c.val, c.dur, true, c.err
}
