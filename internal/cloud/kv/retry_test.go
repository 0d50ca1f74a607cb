package kv_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
	items, _, err := kv.Get(context.Background(), retry, "t", "k")
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

// cancelingStore cancels the caller's context from inside a failing read,
// modeling a cancellation that lands while Retry would sit out its backoff.
type cancelingStore struct {
	kv.Store
	cancel context.CancelFunc
	ops    int
}

func (c *cancelingStore) Read(ctx context.Context, table string, hashKeys []string, visit kv.Visitor) (time.Duration, error) {
	c.ops++
	c.cancel()
	return 5 * time.Millisecond, kv.ErrThrottled
}

// Satellite regression: a context cancelled mid-operation makes Retry
// return immediately — no backoff charged, no further attempts.
func TestRetryReturnsImmediatelyOnCancel(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelingStore{Store: base, cancel: cancel}
	retry := kv.NewRetry(cs)
	retry.BaseBackoff = 10 * time.Second // a completed backoff would be visible
	retry.MaxBackoff = 10 * time.Second

	_, d, err := kv.Get(ctx, retry, "t", "k")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d != 5*time.Millisecond {
		t.Fatalf("charged %v, want only the 5ms op time — no backoff after cancel", d)
	}
	if cs.ops != 1 {
		t.Fatalf("store saw %d attempts, want 1", cs.ops)
	}
	if st := retry.RetryStats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", st.Retries)
	}

	// A context cancelled before the call never reaches the store.
	_, d, err = kv.Get(ctx, retry, "t", "k")
	if !errors.Is(err, context.Canceled) || d != 0 || cs.ops != 1 {
		t.Fatalf("pre-cancelled call: d=%v ops=%d err=%v, want 0/1/Canceled", d, cs.ops, err)
	}
}

// trickleStore applies only the first key of every batch delete and reports
// the rest unprocessed (or, with stall, reports every key unprocessed and
// applies none), recording each batch it was handed.
type trickleStore struct {
	kv.Store
	stall   bool
	batches [][]kv.Key
}

func (s *trickleStore) BatchDelete(table string, keys []kv.Key) (time.Duration, error) {
	s.batches = append(s.batches, append([]kv.Key(nil), keys...))
	if s.stall {
		return time.Millisecond, &kv.PartialDeleteError{Unprocessed: append([]kv.Key(nil), keys...)}
	}
	d, err := s.Store.BatchDelete(table, keys[:1])
	if err != nil || len(keys) == 1 {
		return d, err
	}
	return d, &kv.PartialDeleteError{Unprocessed: append([]kv.Key(nil), keys[1:]...)}
}

// Retry completes a partially applied batch delete by resubmitting only the
// unprocessed keys. Each attempt that deleted something refreshes the
// budget, so ten keys trickling out one per call finish under a budget of
// two attempts; attempts that delete nothing exhaust it.
func TestRetryResubmitsBatchDeleteRemainder(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var keys []kv.Key
	for i := 0; i < 10; i++ {
		mustPut(t, base, "t", item("k", fmt.Sprintf("r%d", i), attr("a", "v")))
		keys = append(keys, kv.Key{HashKey: "k", RangeKey: fmt.Sprintf("r%d", i)})
	}
	ts := &trickleStore{Store: base}
	retry := kv.NewRetry(ts)
	retry.MaxAttempts = 2
	retry.BaseBackoff = time.Microsecond
	if _, err := retry.BatchDelete("t", keys); err != nil {
		t.Fatal(err)
	}
	if got := base.ItemCount("t"); got != 0 {
		t.Errorf("%d items left", got)
	}
	if len(ts.batches) != 10 {
		t.Fatalf("%d attempts, want 10", len(ts.batches))
	}
	for i, b := range ts.batches {
		if !reflect.DeepEqual(b, keys[i:]) {
			t.Errorf("attempt %d resubmitted %v, want the remainder %v", i, b, keys[i:])
		}
	}
	if st := retry.RetryStats(); st.PartialBatches != 9 || st.ItemsResubmitted != 45 || st.GaveUp != 0 {
		t.Errorf("stats = %+v, want 9 partial batches, 45 keys resubmitted, none given up", st)
	}

	stalled := &trickleStore{Store: base, stall: true}
	retry = kv.NewRetry(stalled)
	retry.MaxAttempts = 3
	retry.BaseBackoff = time.Microsecond
	var pe *kv.PartialDeleteError
	if _, err := retry.BatchDelete("t", keys); !errors.As(err, &pe) || len(pe.Unprocessed) != len(keys) {
		t.Errorf("err = %v, want the whole batch unprocessed", err)
	}
	if len(stalled.batches) != 3 || retry.RetryStats().GaveUp != 1 {
		t.Errorf("%d attempts and %+v, want 3 attempts and one give-up", len(stalled.batches), retry.RetryStats())
	}
}
