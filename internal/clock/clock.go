// Package clock answers the live pipeline's two questions about time: what
// time it is, and when a wait ends. SQS leases and long polls, the workers'
// lease renewal and WorkDelay, the front end's query timeout and the
// daemon's token refill all ask a Clock. Production passes Wall. Tests pass
// a Stepped clock and move time by hand, so a lease lapses, a long poll ends
// or a worker crashes mid-lease at a chosen step instead of after a sleep.
//
// Measurements are not decisions: spans, latency histograms and elapsed
// times read time.Now directly, since a stepped clock would report zero for
// them, and so do net.Conn deadlines.
package clock

import (
	"sync"
	"time"
)

// Clock is the source of time for decisions about leases, polls and
// timeouts.
type Clock interface {
	Now() time.Time
	// NewTimer returns a timer whose channel receives the clock's time once
	// d has passed; d <= 0 fires at once.
	NewTimer(d time.Duration) Timer
}

// Timer is a single wait on a Clock. It is a value, so that a wall timer
// costs what a time.Timer does.
type Timer struct {
	// C receives the clock's time when the timer fires.
	C <-chan time.Time

	wall    *time.Timer
	stepped *Stepped
	c       chan time.Time // C, as the stepped clock's table keys it
}

// Stop ends the wait and reports whether it did so before the timer fired.
// A waiter that stops listening stops its timer: a Stepped clock counts the
// timer as waiting until it fires or is stopped.
func (t Timer) Stop() bool {
	switch {
	case t.wall != nil:
		return t.wall.Stop()
	case t.stepped != nil:
		return t.stepped.stop(t.c)
	}
	return false
}

// Wall is the real clock.
type Wall struct{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// NewTimer wraps time.NewTimer.
func (Wall) NewTimer(d time.Duration) Timer {
	t := time.NewTimer(d)
	return Timer{C: t.C, wall: t}
}

// Stepped is a clock that moves only when Advance moves it. Its timers fire
// from Advance. BlockUntil lets a test wait until the goroutines it drives
// have parked on the clock, so that it steps time only once every live loop
// is waiting. It is safe for concurrent use.
type Stepped struct {
	mu      sync.Mutex
	changed sync.Cond // broadcast when a timer is set, fires or is stopped
	gen     int64     // counts those changes
	now     time.Time
	timers  map[chan time.Time]time.Time // channel -> when it fires
}

// NewStepped returns a stepped clock reading start.
func NewStepped(start time.Time) *Stepped {
	s := &Stepped{now: start, timers: make(map[chan time.Time]time.Time)}
	s.changed.L = &s.mu
	return s
}

// Now returns the clock's time.
func (s *Stepped) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// NewTimer returns a timer that fires once Advance has moved the clock d
// past now.
func (s *Stepped) NewTimer(d time.Duration) Timer {
	c := make(chan time.Time, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		c <- s.now
		return Timer{C: c}
	}
	s.timers[c] = s.now.Add(d)
	s.noteLocked()
	return Timer{C: c, stepped: s, c: c}
}

// stop removes c's timer unless it has fired.
func (s *Stepped) stop(c chan time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.timers[c]; !ok {
		return false
	}
	delete(s.timers, c)
	s.noteLocked()
	return true
}

// Advance moves the clock forward by d and fires every timer due by then.
func (s *Stepped) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = s.now.Add(d)
	for c, at := range s.timers {
		if !at.After(s.now) {
			c <- s.now
			delete(s.timers, c)
		}
	}
	s.noteLocked()
}

// BlockUntil returns once cond holds. It calls cond at once and again each
// time a timer is set, fires or is stopped, passing the number of timers
// waiting. cond runs without the clock's lock, so it may read other state,
// such as a queue's length, as long as the goroutines that change that state
// set a timer when they next wait.
func (s *Stepped) BlockUntil(cond func(waiting int) bool) {
	s.mu.Lock()
	for {
		gen, n := s.gen, len(s.timers)
		s.mu.Unlock()
		if cond(n) {
			return
		}
		s.mu.Lock()
		for s.gen == gen {
			s.changed.Wait()
		}
	}
}

func (s *Stepped) noteLocked() {
	s.gen++
	s.changed.Broadcast()
}
