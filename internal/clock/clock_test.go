package clock

import (
	"testing"
	"time"
)

func fired(tm Timer) bool {
	select {
	case <-tm.C:
		return true
	default:
		return false
	}
}

// A stepped timer fires from the Advance that reaches its deadline, not
// before, and reads the clock's time; a stopped one never fires.
func TestSteppedTimers(t *testing.T) {
	start := time.Unix(100, 0)
	s := NewStepped(start)
	a, b, gone := s.NewTimer(10*time.Millisecond), s.NewTimer(30*time.Millisecond), s.NewTimer(time.Millisecond)
	if !gone.Stop() || gone.Stop() {
		t.Error("Stop of a waiting timer reported false, or a second Stop true")
	}
	s.Advance(9 * time.Millisecond)
	if fired(a) || fired(b) || fired(gone) {
		t.Fatal("a timer fired early")
	}
	s.Advance(time.Millisecond)
	select {
	case at := <-a.C:
		if want := start.Add(10 * time.Millisecond); !at.Equal(want) || !s.Now().Equal(want) {
			t.Errorf("fired at %v, clock reads %v, want %v", at, s.Now(), want)
		}
	default:
		t.Fatal("due timer did not fire")
	}
	if a.Stop() {
		t.Error("Stop of a fired timer reported true")
	}
	s.Advance(time.Hour)
	if !fired(b) || fired(gone) {
		t.Error("Advance past every deadline: want the waiting timer fired and the stopped one not")
	}
	if !fired(s.NewTimer(0)) {
		t.Error("a zero timer did not fire at once")
	}
}

// BlockUntil sees every timer set and stopped on other goroutines.
func TestSteppedBlockUntil(t *testing.T) {
	s := NewStepped(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm := s.NewTimer(time.Second)
		<-tm.C
	}()
	s.BlockUntil(func(n int) bool { return n == 1 })
	s.Advance(time.Second)
	s.BlockUntil(func(n int) bool { return n == 0 })
	<-done
}

// A wall timer costs what a time.Timer does: the wrapper allocates nothing
// of its own.
func TestWallTimerAllocatesLikeTimeTimer(t *testing.T) {
	var c Clock = Wall{}
	own := testing.AllocsPerRun(100, func() { c.NewTimer(time.Hour).Stop() })
	std := testing.AllocsPerRun(100, func() { time.NewTimer(time.Hour).Stop() })
	if own > std {
		t.Errorf("Wall.NewTimer allocates %v times, time.NewTimer %v", own, std)
	}
}
