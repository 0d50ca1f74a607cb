// Package vtime provides modeled ("virtual") time accounting for the
// simulated cloud substrate.
//
// The paper measures elapsed wall-clock time on live AWS machines. This
// reproduction replaces wall-clock measurements with deterministic modeled
// time: every simulated service call and every unit of simulated compute
// work yields a duration, and those durations are accumulated on timelines.
//
// A Timeline models one virtual machine: it has one lane per core. Work
// items are placed on lanes with a greedy least-loaded policy, which models
// a multi-threaded worker pool without requiring real concurrency. The
// elapsed time of a timeline is the maximum lane occupancy.
//
// Timelines are safe for concurrent use.
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Timeline accumulates modeled time across a fixed number of parallel lanes
// (cores). The zero value is not usable; use New.
type Timeline struct {
	mu    sync.Mutex
	lanes []time.Duration
}

// New returns a Timeline with n parallel lanes. n must be at least 1.
func New(n int) *Timeline {
	if n < 1 {
		panic(fmt.Sprintf("vtime: timeline must have at least one lane, got %d", n))
	}
	return &Timeline{lanes: make([]time.Duration, n)}
}

// Advance adds d to the given lane. It panics if lane is out of range or d
// is negative.
func (t *Timeline) Advance(lane int, d time.Duration) {
	if d < 0 {
		panic("vtime: negative duration")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes[lane] += d
}

// Schedule places a work item of duration d on the least-loaded lane and
// returns the lane chosen. This greedily models a pool of workers pulling
// tasks from a shared queue.
func (t *Timeline) Schedule(d time.Duration) int {
	if d < 0 {
		panic("vtime: negative duration")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	best := 0
	for i, occ := range t.lanes {
		if occ < t.lanes[best] {
			best = i
		}
		_ = occ
	}
	t.lanes[best] += d
	return best
}

// Lane reports the accumulated time of lane i.
func (t *Timeline) Lane(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lanes[i]
}

// Elapsed reports the modeled elapsed time of the timeline: the maximum
// occupancy across lanes.
func (t *Timeline) Elapsed() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var max time.Duration
	for _, occ := range t.lanes {
		if occ > max {
			max = occ
		}
	}
	return max
}

// Level raises every lane to the timeline's current elapsed time. It models
// a synchronization barrier: after Level, no lane can absorb new work
// "in the past" of the barrier.
func (t *Timeline) Level() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var max time.Duration
	for _, occ := range t.lanes {
		if occ > max {
			max = occ
		}
	}
	for i := range t.lanes {
		t.lanes[i] = max
	}
}

// Reset clears all lanes back to zero.
func (t *Timeline) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.lanes {
		t.lanes[i] = 0
	}
}

// MaxElapsed returns the maximum Elapsed across the given timelines, i.e.
// the modeled wall-clock time of a phase executed by several machines in
// parallel. It returns 0 for an empty argument list.
func MaxElapsed(ts ...*Timeline) time.Duration {
	var max time.Duration
	for _, t := range ts {
		if e := t.Elapsed(); e > max {
			max = e
		}
	}
	return max
}
