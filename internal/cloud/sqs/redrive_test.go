package sqs

import (
	"testing"
	"time"

	"repro/internal/meter"
)

func newDLQ(t *testing.T, maxReceive int) *Service {
	t.Helper()
	s := newStepped(meter.NewLedger())
	for _, q := range []string{"work", "dead"} {
		if err := s.CreateQueue(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetRedrivePolicy("work", "dead", maxReceive); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPoisonMessageMovesToDeadLetterQueue(t *testing.T) {
	s := newDLQ(t, 2)
	s.Send("work", "poison")
	// Two failed deliveries (leases expire immediately via zero release).
	for i := 0; i < 2; i++ {
		m, _, _ := s.Receive(bg, "work", time.Minute, 0)
		if m == nil {
			t.Fatalf("delivery %d missing", i)
		}
		s.ChangeVisibility("work", m.Receipt, 0) // simulate failure/crash
	}
	// Third receive must find nothing: the message was redriven.
	if m, _, _ := s.Receive(bg, "work", time.Minute, 0); m != nil {
		t.Fatalf("poison message delivered a third time: %+v", m)
	}
	if got := s.Len("work"); got != 0 {
		t.Errorf("work queue still holds %d", got)
	}
	if got := s.Len("dead"); got != 1 {
		t.Fatalf("dead-letter queue holds %d, want 1", got)
	}
	dm, _, _ := s.Receive(bg, "dead", time.Minute, 0)
	if dm == nil || dm.Body != "poison" {
		t.Errorf("dead letter = %+v", dm)
	}
}

func TestHealthyMessagesUnaffectedByRedrive(t *testing.T) {
	s := newDLQ(t, 2)
	s.Send("work", "fine")
	m, _, _ := s.Receive(bg, "work", time.Minute, 0)
	if _, err := s.Delete("work", m.Receipt); err != nil {
		t.Fatal(err)
	}
	if s.Len("dead") != 0 {
		t.Error("successful message redriven")
	}
}

func TestReceiveWaitRedrives(t *testing.T) {
	s := newDLQ(t, 1)
	s.Send("work", "poison")
	m, _, _ := s.Receive(bg, "work", 10*time.Millisecond, 0)
	if m == nil {
		t.Fatal("first delivery missing")
	}
	stepped(s).Advance(10 * time.Millisecond)
	// The long poll must redrive rather than deliver, then time out.
	got := receiveAsync(bg, s, "work", time.Minute, 50*time.Millisecond)
	if s.Len("dead") != 1 {
		t.Errorf("long poll parked without redriving: dead queue = %d", s.Len("dead"))
	}
	stepped(s).Advance(50 * time.Millisecond)
	if m2 := await(t, got); m2 != nil {
		t.Fatalf("exhausted message delivered: %+v", m2)
	}
	if s.Len("dead") != 1 {
		t.Errorf("dead queue = %d", s.Len("dead"))
	}
}

func TestRedrivePolicyValidation(t *testing.T) {
	s := newStepped(meter.NewLedger())
	s.CreateQueue("a")
	if err := s.SetRedrivePolicy("a", "missing", 3); err == nil {
		t.Error("missing dead-letter queue accepted")
	}
	if err := s.SetRedrivePolicy("missing", "a", 3); err == nil {
		t.Error("missing source queue accepted")
	}
	if err := s.SetRedrivePolicy("a", "a", 3); err == nil {
		t.Error("self redrive accepted")
	}
	s.CreateQueue("b")
	if err := s.SetRedrivePolicy("a", "b", 0); err == nil {
		t.Error("zero maxReceive accepted")
	}
}
