package kv_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func TestRetryHidesTransientThrottling(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	faulty := &chaos.EveryNth{Store: base, FailEvery: 2}
	retry := kv.NewRetry(faulty)
	retry.BaseBackoff = time.Millisecond

	for i := 0; i < 20; i++ {
		if _, err := retry.Put("t", item("k", string(rune('a'+i)), attr("a", "v"))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if got := base.ItemCount("t"); got != 20 {
		t.Errorf("items = %d, want 20", got)
	}
	if faulty.Injected() == 0 {
		t.Error("no faults were injected")
	}
	items, _, err := retry.Get(context.Background(), "t", "k")
	if err != nil || len(items) != 20 {
		t.Errorf("get = %d items, %v", len(items), err)
	}
	st := retry.RetryStats()
	if st.Retries == 0 || st.Throttles == 0 {
		t.Errorf("stats = %+v, want retries and throttles recorded", st)
	}
}

func TestRetryChargesBackoffTime(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	base.CreateTable("t")
	faulty := &chaos.EveryNth{Store: base, FailEvery: 2}
	retry := kv.NewRetry(faulty)
	retry.BaseBackoff = 100 * time.Millisecond

	// FailEvery=2: op1 ok, op2 throttled then op3 ok. The retried put's
	// modeled latency must include a positive jittered backoff on top of the
	// store latency; the items are the same size, so the store latencies
	// match and any excess is backoff.
	d1, err := retry.Put("t", item("k", "a", attr("a", "v")))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := retry.Put("t", item("k", "b", attr("a", "v")))
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("retried op latency %v does not include backoff (first %v)", d2, d1)
	}
	if d2 > d1+100*time.Millisecond {
		t.Errorf("backoff %v exceeds the 100ms first-retry cap", d2-d1)
	}
}

// Same seed, same failure pattern: the jittered backoff is reproducible.
func TestRetryBackoffIsSeeded(t *testing.T) {
	run := func(seed int64) time.Duration {
		base := dynamodb.New(meter.NewLedger())
		base.CreateTable("t")
		retry := kv.NewRetry(&chaos.EveryNth{Store: base, FailEvery: 2})
		retry.Seed = seed
		var total time.Duration
		for i := 0; i < 10; i++ {
			d, err := retry.Put("t", item("k", string(rune('a'+i)), attr("a", "v")))
			if err != nil {
				t.Fatal(err)
			}
			total += d
		}
		return total
	}
	if a, b := run(5), run(5); a != b {
		t.Errorf("same seed, different modeled time: %v vs %v", a, b)
	}
	if a, b := run(5), run(6); a == b {
		t.Errorf("different seeds, identical modeled time %v — jitter not seeded", a)
	}
}

// A large attempt budget must not overflow the exponential backoff: every
// wait stays within (0, MaxBackoff] and the charged total stays positive.
func TestRetryBackoffCappedWithoutOverflow(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	base.CreateTable("t")
	alwaysFail := &chaos.EveryNth{Store: base, FailEvery: 1}
	retry := kv.NewRetry(alwaysFail)
	retry.MaxAttempts = 200 // base<<200 would wrap; the doubling must stop at the cap
	retry.BaseBackoff = time.Millisecond
	retry.MaxBackoff = 50 * time.Millisecond

	d, err := retry.Put("t", item("k", "a", attr("a", "v")))
	if !errors.Is(err, kv.ErrThrottled) {
		t.Fatalf("err = %v, want throttled", err)
	}
	if d <= 0 {
		t.Errorf("charged backoff %v is not positive — overflow", d)
	}
	if max := time.Duration(199) * 50 * time.Millisecond; d > max {
		t.Errorf("charged backoff %v exceeds %v (199 waits at the 50ms cap)", d, max)
	}
	if got := alwaysFail.Injected(); got != 200 {
		t.Errorf("attempts = %d, want 200", got)
	}
}

func TestRetryGivesUpEventually(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	base.CreateTable("t")
	alwaysFail := &chaos.EveryNth{Store: base, FailEvery: 1}
	retry := kv.NewRetry(alwaysFail)
	retry.BaseBackoff = time.Microsecond
	retry.MaxAttempts = 3
	_, err := retry.Put("t", item("k", "a", attr("a", "v")))
	if !errors.Is(err, kv.ErrThrottled) {
		t.Errorf("err = %v, want throttled", err)
	}
	if got := alwaysFail.Injected(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if st := retry.RetryStats(); st.GaveUp != 1 {
		t.Errorf("GaveUp = %d, want 1", st.GaveUp)
	}
}

func TestRetryHandlesInternalErrors(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	base.CreateTable("t")
	faulty := &chaos.EveryNth{Store: base, FailEvery: 2, Err: kv.ErrInternal}
	retry := kv.NewRetry(faulty)
	retry.BaseBackoff = time.Microsecond
	for i := 0; i < 10; i++ {
		if _, err := retry.Put("t", item("k", string(rune('a'+i)), attr("a", "v"))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if st := retry.RetryStats(); st.Internal == 0 || st.Throttles != 0 {
		t.Errorf("stats = %+v, want internal errors only", st)
	}
}

func TestRetryPassesHardErrorsThrough(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	retry := kv.NewRetry(base) // no table created
	if _, err := retry.Put("missing", item("k", "a")); !errors.Is(err, kv.ErrNoSuchTable) {
		t.Errorf("err = %v, want no-such-table", err)
	}
}

// End to end: a full index load over a flaky store succeeds behind the
// retry wrapper and answers look-ups identically to a healthy store.
func TestIndexLoadSurvivesThrottling(t *testing.T) {
	docs := xmark.Paintings()
	healthy := dynamodb.New(meter.NewLedger())
	flakyBase := dynamodb.New(meter.NewLedger())
	flaky := kv.NewRetry(&chaos.EveryNth{Store: flakyBase, FailEvery: 3})
	flaky.BaseBackoff = time.Microsecond

	for _, store := range []kv.Store{healthy, flaky} {
		if err := index.CreateTables(store, index.LUP); err != nil {
			t.Fatal(err)
		}
		opts := index.OptionsFor(store)
		for _, gd := range docs {
			d, err := xmltree.Parse(gd.URI, gd.Data)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := index.LoadDocument(store, index.LUP, d, opts); err != nil {
				t.Fatalf("load %s: %v", gd.URI, err)
			}
		}
	}
	q := pattern.MustParse(`//painting[/name~"Lion"]`).Patterns[0]
	a, _, err := index.LookupPattern(healthy, index.LUP, q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := index.LookupPattern(flaky, index.LUP, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Errorf("healthy %v vs flaky %v", a, b)
	}
}
