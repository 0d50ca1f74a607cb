package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// sinkMap is a test CounterSink.
type sinkMap struct {
	mu sync.Mutex
	m  map[string]int64
}

func newSink() *sinkMap { return &sinkMap{m: make(map[string]int64)} }

func (s *sinkMap) Add(name string, delta int64) {
	s.mu.Lock()
	s.m[name] += delta
	s.mu.Unlock()
}

func (s *sinkMap) get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(100*time.Millisecond, -1)
	if rem, ok := b.Headroom(0); !ok || rem != 100*time.Millisecond {
		t.Fatalf("fresh headroom = %v,%v", rem, ok)
	}
	b.Charge(40 * time.Millisecond)
	if rem, _ := b.Headroom(10 * time.Millisecond); rem != 50*time.Millisecond {
		t.Fatalf("headroom after charge+pending = %v", rem)
	}
	if b.Exhausted(0) {
		t.Fatal("not exhausted yet")
	}
	b.Charge(60 * time.Millisecond)
	if !b.Exhausted(0) {
		t.Fatal("should be exhausted")
	}
	if rem, ok := b.Headroom(0); !ok || rem != 0 {
		t.Fatalf("exhausted headroom = %v,%v (want 0,true)", rem, ok)
	}
}

func TestBudgetNoDeadline(t *testing.T) {
	b := NewBudget(0, -1)
	if _, ok := b.Headroom(0); ok {
		t.Fatal("no deadline must report ok=false")
	}
	if b.Exhausted(time.Hour) {
		t.Fatal("no deadline never exhausts")
	}
	var nilB *Budget
	if nilB.Exhausted(time.Hour) || !nilB.TakeRetry() {
		t.Fatal("nil budget must be a no-op")
	}
	nilB.Charge(time.Hour) // must not panic
}

func TestBudgetRetryTokens(t *testing.T) {
	b := NewBudget(0, 2)
	if !b.TakeRetry() || !b.TakeRetry() {
		t.Fatal("two tokens should be takeable")
	}
	if b.TakeRetry() {
		t.Fatal("third take must fail")
	}
	unlimited := NewBudget(0, -1)
	for i := 0; i < 100; i++ {
		if !unlimited.TakeRetry() {
			t.Fatal("unlimited pool must always grant")
		}
	}
}

func TestBudgetContext(t *testing.T) {
	b := NewBudget(time.Second, 3)
	ctx := NewContext(context.Background(), b)
	if FromContext(ctx) != b {
		t.Fatal("round-trip failed")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("absent budget must be nil")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil-safety is the contract
		t.Fatal("nil ctx must yield nil budget")
	}
}

func TestDeadlineErrorMatchesContext(t *testing.T) {
	if !errors.Is(ErrDeadline, context.DeadlineExceeded) {
		t.Fatal("ErrDeadline must match context.DeadlineExceeded")
	}
	if errors.Is(ErrDeadline, context.Canceled) {
		t.Fatal("ErrDeadline must not match Canceled")
	}
}

func TestGroupCoalesces(t *testing.T) {
	g := NewGroup()
	sink := newSink()
	g.Sink = sink

	const waiters = 8
	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex

	fn := func() (any, time.Duration, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		close(started)
		<-release
		return "payload", 7 * time.Millisecond, nil
	}

	var wg sync.WaitGroup
	vals := make([]any, waiters)
	durs := make([]time.Duration, waiters)
	lead := make([]bool, waiters)

	// The leader enters first and blocks inside fn; followers then attach
	// to its in-flight call. A follower's fn failing the test proves none
	// of them ever executed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], durs[0], lead[0], _ = g.Do("k", fn)
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], durs[i], lead[i], _ = g.Do("k", func() (any, time.Duration, error) {
				t.Error("follower executed fn")
				return nil, 0, nil
			})
		}(i)
	}
	// Wait until every follower is attached to the in-flight call (the
	// hold count is observable under the group mutex), then release.
	for {
		g.mu.Lock()
		c := g.m["k"]
		attached := c != nil && c.waiters == waiters-1
		g.mu.Unlock()
		if attached {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	leaders := 0
	for i := 0; i < waiters; i++ {
		if vals[i] != "payload" || durs[i] != 7*time.Millisecond {
			t.Fatalf("waiter %d got (%v, %v)", i, vals[i], durs[i])
		}
		if lead[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if sink.get(MetricCoalesceLeaders) != 1 || sink.get(MetricCoalesceHits) != int64(waiters-1) {
		t.Fatalf("sink counters wrong: %v", sink.m)
	}
}

func TestGroupSequentialCallsDoNotCoalesce(t *testing.T) {
	g := NewGroup()
	calls := 0
	for i := 0; i < 3; i++ {
		_, _, leader, _ := g.Do("k", func() (any, time.Duration, error) {
			calls++
			return nil, 0, nil
		})
		if !leader {
			t.Fatal("non-overlapping call must lead")
		}
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (no caching)", calls)
	}
}

func TestGroupNil(t *testing.T) {
	var g *Group
	v, d, leader, err := g.Do("k", func() (any, time.Duration, error) {
		return 42, time.Millisecond, nil
	})
	if v != 42 || d != time.Millisecond || !leader || err != nil {
		t.Fatalf("nil group passthrough got (%v,%v,%v,%v)", v, d, leader, err)
	}
}
