package serve

import (
	"testing"
	"time"

	"repro/internal/clock"
)

func TestAdmissionRateQuota(t *testing.T) {
	clk := clock.NewStepped(time.Unix(1000, 0))
	a := newAdmission(Limits{Workers: 1, TenantQPS: 2, TenantBurst: 2}, clk)

	for i := 0; i < 2; i++ {
		if rej := a.Admit("acme"); rej != nil {
			t.Fatalf("burst admit %d rejected: %v", i, rej)
		}
	}
	rej := a.Admit("acme")
	if rej == nil || rej.Reason != ReasonQuotaRate {
		t.Fatalf("third admit = %v, want quota_rate rejection", rej)
	}
	if rej.RetryAfter <= 0 || rej.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %s, want (0, 1s] at 2 QPS", rej.RetryAfter)
	}

	// Refill: one second at 2 QPS buys two more admits.
	clk.Advance(time.Second)
	for i := 0; i < 2; i++ {
		if rej := a.Admit("acme"); rej != nil {
			t.Fatalf("post-refill admit %d rejected: %v", i, rej)
		}
	}
	if rej := a.Admit("acme"); rej == nil {
		t.Fatal("bucket should be empty again")
	}

	// Another tenant has its own bucket.
	if rej := a.Admit("globex"); rej != nil {
		t.Fatalf("fresh tenant rejected: %v", rej)
	}
}

func TestAdmissionInflightQuota(t *testing.T) {
	a := newAdmission(Limits{Workers: 4, TenantInflight: 2}, clock.Wall{})
	if rej := a.Admit("acme"); rej != nil {
		t.Fatal(rej)
	}
	if rej := a.Admit("acme"); rej != nil {
		t.Fatal(rej)
	}
	rej := a.Admit("acme")
	if rej == nil || rej.Reason != ReasonQuotaInflight {
		t.Fatalf("third concurrent admit = %v, want quota_inflight", rej)
	}
	// Tenant isolation: acme saturating its share leaves globex untouched.
	if rej := a.Admit("globex"); rej != nil {
		t.Fatalf("other tenant rejected while acme saturated: %v", rej)
	}
	a.Release("acme")
	if rej := a.Admit("acme"); rej != nil {
		t.Fatalf("admit after release rejected: %v", rej)
	}
	if got := a.tenants["acme"].inflight; got != 2 {
		t.Errorf("acme inflight = %d, want 2", got)
	}
	if got := a.Inflight(); got != 3 {
		t.Errorf("total inflight = %d, want 3", got)
	}
}

func TestAdmissionRefundReturnsToken(t *testing.T) {
	clk := clock.NewStepped(time.Unix(1000, 0))
	a := newAdmission(Limits{Workers: 1, TenantQPS: 1, TenantBurst: 1}, clk)
	if rej := a.Admit("acme"); rej != nil {
		t.Fatal(rej)
	}
	// Without a refund the bucket is empty; a refund restores the token and
	// clears the inflight slot, so the tenant is not double-charged for a
	// queue-full shed.
	a.Refund("acme")
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight after refund = %d, want 0", got)
	}
	if rej := a.Admit("acme"); rej != nil {
		t.Fatalf("admit after refund rejected: %v", rej)
	}
}

func TestLimitsDefaults(t *testing.T) {
	l := Limits{TenantQPS: 3}.withDefaults()
	if l.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", l.Workers)
	}
	if l.QueueDepth != 4*l.Workers {
		t.Errorf("QueueDepth = %d, want %d", l.QueueDepth, 4*l.Workers)
	}
	if l.TenantBurst != 6 {
		t.Errorf("TenantBurst = %d, want ceil(2*3) = 6", l.TenantBurst)
	}
}
