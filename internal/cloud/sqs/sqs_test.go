package sqs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/meter"
)

// bg is the context of a receive nothing cancels.
var bg = context.Background()

// newStepped returns a service recording into led on a stepped clock, which
// stepped(s) moves.
func newStepped(led *meter.Ledger) *Service {
	return New(led, clock.NewStepped(time.Unix(0, 0)))
}

// stepped is the clock of a service newStepped built.
func stepped(s *Service) *clock.Stepped { return s.clock.(*clock.Stepped) }

func newSvc(t *testing.T) *Service {
	t.Helper()
	s := newStepped(meter.NewLedger())
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	return s
}

// receiveAsync runs a Receive on its own goroutine and returns it once the
// receive waits on the clock, with the channel its message arrives on.
func receiveAsync(ctx context.Context, s *Service, queueName string, visibility, wait time.Duration) <-chan *Message {
	got := make(chan *Message, 1)
	clk := stepped(s)
	var before int
	clk.BlockUntil(func(n int) bool { before = n; return true }) // the timers waiting now
	go func() {
		m, _, _ := s.Receive(ctx, queueName, visibility, wait)
		got <- m
	}()
	clk.BlockUntil(func(n int) bool { return n > before })
	return got
}

// await returns what a receive delivered, failing the test if it has not
// returned within a second.
func await(t *testing.T, got <-chan *Message) *Message {
	t.Helper()
	select {
	case m := <-got:
		return m
	case <-time.After(time.Second):
		t.Fatal("receive did not return")
		return nil
	}
}

// stillWaiting fails the test if a receive has returned.
func stillWaiting(t *testing.T, got <-chan *Message) {
	t.Helper()
	select {
	case m := <-got:
		t.Fatalf("receive returned %+v, want it still waiting", m)
	default:
	}
}

func TestSendReceiveDelete(t *testing.T) {
	s := newSvc(t)
	id, _, err := s.Send("q", "load doc1.xml")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.Receive(bg, "q", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.ID != id || m.Body != "load doc1.xml" || m.ReceiveCount != 1 {
		t.Fatalf("received %+v", m)
	}
	if _, err := s.Delete("q", m.Receipt); err != nil {
		t.Fatal(err)
	}
	if got := s.Len("q"); got != 0 {
		t.Errorf("Len = %d, want 0", got)
	}
}

func TestReceiveOrderIsFIFO(t *testing.T) {
	s := newSvc(t)
	s.Send("q", "first")
	s.Send("q", "second")
	m1, _, _ := s.Receive(bg, "q", time.Minute, 0)
	m2, _, _ := s.Receive(bg, "q", time.Minute, 0)
	if m1.Body != "first" || m2.Body != "second" {
		t.Errorf("order = %q, %q", m1.Body, m2.Body)
	}
}

func TestLeasedMessageInvisible(t *testing.T) {
	s := newSvc(t)
	s.Send("q", "job")
	m, _, _ := s.Receive(bg, "q", time.Minute, 0)
	if m == nil {
		t.Fatal("no message")
	}
	m2, _, _ := s.Receive(bg, "q", time.Minute, 0)
	if m2 != nil {
		t.Errorf("leased message redelivered: %+v", m2)
	}
}

func TestLeaseExpiryRedelivers(t *testing.T) {
	s := newSvc(t)
	s.Send("q", "job")
	m1, _, _ := s.Receive(bg, "q", 20*time.Millisecond, 0)
	stepped(s).Advance(19 * time.Millisecond)
	if m, _, _ := s.Receive(bg, "q", time.Minute, 0); m != nil {
		t.Fatalf("lease redelivered before it lapsed: %+v", m)
	}
	stepped(s).Advance(time.Millisecond)
	m2, _, _ := s.Receive(bg, "q", time.Minute, 0)
	if m2 == nil {
		t.Fatal("expired lease not redelivered")
	}
	if m2.ReceiveCount != 2 {
		t.Errorf("ReceiveCount = %d, want 2", m2.ReceiveCount)
	}
	// The crashed worker's late delete must not remove the retaken job.
	if _, err := s.Delete("q", m1.Receipt); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("stale delete: %v", err)
	}
	if got := s.Len("q"); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	if _, err := s.Delete("q", m2.Receipt); err != nil {
		t.Errorf("current delete: %v", err)
	}
}

func TestChangeVisibilityRenewsLease(t *testing.T) {
	s := newSvc(t)
	s.Send("q", "job")
	m, _, _ := s.Receive(bg, "q", 30*time.Millisecond, 0)
	// Renew before expiry; after the original timeout the message must
	// still be invisible.
	if _, err := s.ChangeVisibility("q", m.Receipt, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stepped(s).Advance(50 * time.Millisecond)
	if m2, _, _ := s.Receive(bg, "q", time.Minute, 0); m2 != nil {
		t.Errorf("renewed lease redelivered: %+v", m2)
	}
}

func TestChangeVisibilityZeroReleases(t *testing.T) {
	s := newSvc(t)
	s.Send("q", "job")
	m, _, _ := s.Receive(bg, "q", time.Minute, 0)
	s.ChangeVisibility("q", m.Receipt, 0)
	m2, _, _ := s.Receive(bg, "q", time.Minute, 0)
	if m2 == nil {
		t.Error("released message not redelivered")
	}
}

func TestReceiveEmptyQueue(t *testing.T) {
	s := newSvc(t)
	m, _, err := s.Receive(bg, "q", time.Minute, 0)
	if err != nil || m != nil {
		t.Errorf("empty receive = (%+v, %v)", m, err)
	}
}

// A send wakes a waiting receive at once, with no time passing.
func TestReceiveWaitBlocksUntilSend(t *testing.T) {
	s := newSvc(t)
	got := receiveAsync(bg, s, "q", time.Minute, time.Second)
	s.Send("q", "late")
	if m := await(t, got); m == nil || m.Body != "late" {
		t.Fatalf("Receive = %+v, want the late message", m)
	}
}

func TestReceiveWaitTimesOut(t *testing.T) {
	s := newSvc(t)
	got := receiveAsync(bg, s, "q", time.Minute, 30*time.Millisecond)
	stepped(s).Advance(29 * time.Millisecond)
	stillWaiting(t, got)
	stepped(s).Advance(time.Millisecond)
	if m := await(t, got); m != nil {
		t.Fatalf("Receive = %+v, want none", m)
	}
}

func TestReceiveWaitPicksUpExpiredLease(t *testing.T) {
	s := newSvc(t)
	s.Send("q", "job")
	s.Receive(bg, "q", 30*time.Millisecond, 0) // lease and "crash"
	got := receiveAsync(bg, s, "q", time.Minute, time.Second)
	stepped(s).Advance(30 * time.Millisecond)
	if m := await(t, got); m == nil || m.ReceiveCount != 2 {
		t.Fatalf("Receive after lease expiry = %+v", m)
	}
}

// A burst of sends to as many parked waiters delivers every message at
// once: each send wakes every waiter, so none sleeps out its wait while a
// message it could take sits in the queue.
func TestReceiveBurstWakesEveryWaiter(t *testing.T) {
	s := newSvc(t)
	const n = 8
	var got []<-chan *Message
	for i := 0; i < n; i++ {
		got = append(got, receiveAsync(bg, s, "q", time.Minute, MaxWait))
	}
	for i := 0; i < n; i++ {
		s.Send("q", "job")
	}
	// No time passes: a waiter that missed its wake-up never returns.
	for _, c := range got {
		if m := await(t, c); m == nil {
			t.Fatal("a waiter came back empty")
		}
	}
}

// Cancelling the context ends a wait at once: no message, no error, and
// the call is billed as the one receive it is.
func TestReceiveCancelledWait(t *testing.T) {
	led := meter.NewLedger()
	s := newStepped(led)
	s.CreateQueue("q")
	ctx, cancel := context.WithCancel(context.Background())
	got := receiveAsync(ctx, s, "q", time.Minute, MaxWait)
	cancel()
	if m := await(t, got); m != nil {
		t.Fatalf("cancelled Receive = %+v", m)
	}
	if got := led.Snapshot().Get(Backend, "receive").Calls; got != 1 {
		t.Errorf("cancelled wait billed %d receives, want 1", got)
	}
}

// A lease released or shortened while a receiver waits wakes it: its timer
// was set for the old expiry.
func TestReceiveWakesOnShortenedLease(t *testing.T) {
	for _, vis := range []time.Duration{0, 10 * time.Millisecond} {
		s := newSvc(t)
		s.Send("q", "job")
		held, _, _ := s.Receive(bg, "q", time.Minute, 0)
		got := receiveAsync(bg, s, "q", time.Minute, MaxWait)
		s.ChangeVisibility("q", held.Receipt, vis)
		// The clock moves past the new expiry, not the old one: a waiter
		// still timed for a minute never returns.
		stepped(s).Advance(vis)
		if m := await(t, got); m == nil || m.ReceiveCount != 2 {
			t.Fatalf("visibility %v: Receive = %+v", vis, m)
		}
	}
}

func TestQueueErrors(t *testing.T) {
	s := newSvc(t)
	if err := s.CreateQueue("q"); !errors.Is(err, ErrQueueExists) {
		t.Errorf("duplicate queue: %v", err)
	}
	if err := s.CreateQueue(""); !errors.Is(err, ErrEmptyQueueName) {
		t.Errorf("empty name: %v", err)
	}
	if _, _, err := s.Send("nope", "x"); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("missing queue send: %v", err)
	}
	if _, _, err := s.Receive(bg, "nope", time.Minute, 0); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("missing queue receive: %v", err)
	}
	if _, err := s.Delete("q", "bogus"); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("bogus receipt: %v", err)
	}
	if _, err := s.ChangeVisibility("q", "bogus", time.Second); !errors.Is(err, ErrStaleReceipt) {
		t.Errorf("bogus visibility receipt: %v", err)
	}
}

func TestMetering(t *testing.T) {
	led := meter.NewLedger()
	s := newStepped(led)
	s.CreateQueue("q")
	s.Send("q", "body")
	m, _, _ := s.Receive(bg, "q", time.Minute, 0)
	s.Delete("q", m.Receipt)
	s.Receive(bg, "q", time.Minute, 0) // empty poll is billed too
	u := led.Snapshot()
	if got := u.Get("sqs", "send").Calls; got != 1 {
		t.Errorf("send calls = %d", got)
	}
	if got := u.Get("sqs", "receive").Calls; got != 2 {
		t.Errorf("receive calls = %d", got)
	}
	if got := u.Get("sqs", "delete").Calls; got != 1 {
		t.Errorf("delete calls = %d", got)
	}
}

func TestConcurrentConsumersEachJobOnce(t *testing.T) {
	s := newSvc(t)
	const jobs = 50
	for i := 0; i < jobs; i++ {
		s.Send("q", "job")
	}
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, _, _ := s.Receive(bg, "q", time.Minute, 0)
				if m == nil {
					return
				}
				mu.Lock()
				seen[m.ID]++
				mu.Unlock()
				s.Delete("q", m.Receipt)
			}
		}()
	}
	wg.Wait()
	if len(seen) != jobs {
		t.Fatalf("processed %d distinct jobs, want %d", len(seen), jobs)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("job %s processed %d times", id, n)
		}
	}
}
