package sqs

import (
	"testing"
	"time"

	"repro/internal/meter"
)

// Long polling bills one request per Receive call, regardless of how many
// internal wake-ups happen — the reason the live workers can idle
// cheaply.
func TestReceiveWaitBilledOnce(t *testing.T) {
	led := meter.NewLedger()
	s := newStepped(led)
	s.CreateQueue("q")
	// A leased message forces several internal wake-ups while waiting.
	s.Send("q", "held")
	m, _, _ := s.Receive(bg, "q", 25*time.Millisecond, 0)
	if m == nil {
		t.Fatal("no message")
	}
	before := led.Snapshot().Get(Backend, "receive").Calls
	c := receiveAsync(bg, s, "q", time.Minute, 100*time.Millisecond)
	// A shortened lease wakes the receive, which finds nothing visible yet
	// and waits again until the lease lapses.
	s.ChangeVisibility("q", m.Receipt, 10*time.Millisecond)
	stepped(s).Advance(10 * time.Millisecond)
	if got := await(t, c); got == nil {
		t.Fatal("Receive returned no message")
	}
	after := led.Snapshot().Get(Backend, "receive").Calls
	if after-before != 1 {
		t.Errorf("long poll billed %d receives, want 1", after-before)
	}
}

func TestChangeVisibilityBilled(t *testing.T) {
	led := meter.NewLedger()
	s := newStepped(led)
	s.CreateQueue("q")
	s.Send("q", "x")
	m, _, _ := s.Receive(bg, "q", time.Minute, 0)
	s.ChangeVisibility("q", m.Receipt, time.Minute)
	if got := led.Snapshot().Get(Backend, "changeVisibility").Calls; got != 1 {
		t.Errorf("changeVisibility calls = %d", got)
	}
}

func TestSendPayloadBytesMetered(t *testing.T) {
	led := meter.NewLedger()
	s := newStepped(led)
	s.CreateQueue("q")
	s.Send("q", "0123456789")
	if got := led.Snapshot().Get(Backend, "send").Bytes; got != 10 {
		t.Errorf("send bytes = %d, want 10", got)
	}
}
