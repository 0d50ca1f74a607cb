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
	s := New(led)
	s.CreateQueue("q")
	// A leased message forces several internal wake-ups while waiting.
	s.Send("q", "held")
	m, _, _ := s.Receive(bg, "q", 25*time.Millisecond, 0)
	if m == nil {
		t.Fatal("no message")
	}
	before := led.Snapshot().Get(Backend, "receive").Calls
	got, _, err := s.Receive(bg, "q", time.Minute, 100*time.Millisecond)
	if err != nil || got == nil {
		t.Fatalf("Receive = %v, %v", got, err)
	}
	after := led.Snapshot().Get(Backend, "receive").Calls
	if after-before != 1 {
		t.Errorf("long poll billed %d receives, want 1", after-before)
	}
}

func TestChangeVisibilityBilled(t *testing.T) {
	led := meter.NewLedger()
	s := New(led)
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
	s := New(led)
	s.CreateQueue("q")
	s.Send("q", "0123456789")
	if got := led.Snapshot().Get(Backend, "send").Bytes; got != 10 {
		t.Errorf("send bytes = %d, want 10", got)
	}
}
