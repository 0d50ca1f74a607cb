package vtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// busy is the total occupied time summed over tl's lanes.
func busy(tl *Timeline) time.Duration {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var sum time.Duration
	for _, occ := range tl.lanes {
		sum += occ
	}
	return sum
}

func TestNewPanicsOnZeroLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAdvanceAndLane(t *testing.T) {
	tl := New(2)
	tl.Advance(0, 3*time.Second)
	tl.Advance(1, 5*time.Second)
	tl.Advance(0, 1*time.Second)
	if got := tl.Lane(0); got != 4*time.Second {
		t.Errorf("lane 0 = %v, want 4s", got)
	}
	if got := tl.Lane(1); got != 5*time.Second {
		t.Errorf("lane 1 = %v, want 5s", got)
	}
}

func TestElapsedIsMaxLane(t *testing.T) {
	tl := New(3)
	tl.Advance(0, 2*time.Second)
	tl.Advance(2, 7*time.Second)
	if got := tl.Elapsed(); got != 7*time.Second {
		t.Errorf("Elapsed = %v, want 7s", got)
	}
	if got := busy(tl); got != 9*time.Second {
		t.Errorf("Busy = %v, want 9s", got)
	}
}

func TestScheduleBalancesLanes(t *testing.T) {
	tl := New(2)
	// Four equal tasks on two lanes must split 2/2.
	for i := 0; i < 4; i++ {
		tl.Schedule(time.Second)
	}
	if got := tl.Elapsed(); got != 2*time.Second {
		t.Errorf("Elapsed = %v, want 2s", got)
	}
}

func TestScheduleGreedyApproximation(t *testing.T) {
	// Tasks 5,4,3,3,3 on 2 lanes: greedy gives lanes {5,4+3}= {5,7} then 3,3
	// onto min lane: {5+3, 7} -> {8,7} -> {8, 7+3}= {8,10}.
	tl := New(2)
	for _, s := range []int{5, 4, 3, 3, 3} {
		tl.Schedule(time.Duration(s) * time.Second)
	}
	if got := tl.Elapsed(); got != 10*time.Second {
		t.Errorf("Elapsed = %v, want 10s", got)
	}
	if got := busy(tl); got != 18*time.Second {
		t.Errorf("Busy = %v, want 18s", got)
	}
}

func TestLevelActsAsBarrier(t *testing.T) {
	tl := New(2)
	tl.Advance(0, 10*time.Second)
	tl.Level()
	if got := tl.Lane(1); got != 10*time.Second {
		t.Errorf("lane 1 after Level = %v, want 10s", got)
	}
	tl.Schedule(time.Second)
	if got := tl.Elapsed(); got != 11*time.Second {
		t.Errorf("Elapsed = %v, want 11s", got)
	}
}

func TestResetClearsLanes(t *testing.T) {
	tl := New(2)
	tl.Schedule(time.Minute)
	tl.Reset()
	if tl.Elapsed() != 0 || busy(tl) != 0 {
		t.Error("Reset did not clear the timeline")
	}
}

func TestMaxElapsedAndSumBusy(t *testing.T) {
	a, b := New(1), New(1)
	a.Advance(0, 4*time.Second)
	b.Advance(0, 9*time.Second)
	if got := MaxElapsed(a, b); got != 9*time.Second {
		t.Errorf("MaxElapsed = %v, want 9s", got)
	}
	if got := busy(a) + busy(b); got != 13*time.Second {
		t.Errorf("summed Busy = %v, want 13s", got)
	}
	if got := MaxElapsed(); got != 0 {
		t.Errorf("MaxElapsed() = %v, want 0", got)
	}
}

func TestConcurrentSchedule(t *testing.T) {
	tl := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tl.Schedule(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := busy(tl); got != 800*time.Millisecond {
		t.Errorf("Busy = %v, want 800ms", got)
	}
}

// Property: for any set of non-negative task durations, Busy equals their sum
// and Elapsed is bounded by [Busy/lanes, Busy] and at least the max task.
func TestScheduleProperties(t *testing.T) {
	f := func(tasks []uint16, lanesSeed uint8) bool {
		lanes := int(lanesSeed%7) + 1
		tl := New(lanes)
		var sum, maxTask time.Duration
		for _, ms := range tasks {
			d := time.Duration(ms) * time.Millisecond
			tl.Schedule(d)
			sum += d
			if d > maxTask {
				maxTask = d
			}
		}
		if busy(tl) != sum {
			return false
		}
		e := tl.Elapsed()
		if e > sum || e < maxTask {
			return false
		}
		// Greedy list scheduling never exceeds 2x the optimal makespan, and
		// optimal >= sum/lanes.
		lower := sum / time.Duration(lanes)
		return e <= 2*(lower+maxTask)+time.Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
