package kv_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/resilience"
)

// tailSeed returns the seed of the straggler chaos schedule; CI sweeps it
// through the CHAOS_SEED environment variable, like the core chaos suite.
func tailSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

// testSink collects counter increments for assertions.
type testSink struct {
	mu sync.Mutex
	m  map[string]int64
}

func newTestSink() *testSink { return &testSink{m: make(map[string]int64)} }

func (s *testSink) Add(name string, delta int64) {
	s.mu.Lock()
	s.m[name] += delta
	s.mu.Unlock()
}

func (s *testSink) get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// Satellite regression: when the modeled deadline lands inside a jittered
// backoff wait, Retry must charge only the slice up to the deadline and
// stop — not complete the wait and re-attempt.
func TestRetryStopsAtModeledDeadlineMidBackoff(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	faulty := &chaos.EveryNth{Store: base, FailEvery: 1} // every op throttled
	retry := kv.NewRetry(faulty)
	// The first backoff draw is uniform in (0, 10s] — far beyond the 30ms
	// deadline, so the deadline cuts mid-backoff.
	retry.BaseBackoff = 10 * time.Second
	retry.MaxBackoff = 10 * time.Second

	deadline := 30 * time.Millisecond
	ctx := resilience.NewContext(context.Background(), resilience.NewBudget(deadline, -1))
	_, d, err := retry.Get(ctx, "t", "k")
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("modeled deadline error must match context.DeadlineExceeded, got %v", err)
	}
	if d != deadline {
		t.Fatalf("charged %v, want exactly the %v headroom — not the full jittered backoff", d, deadline)
	}
	if got := faulty.Injected(); got != 1 {
		t.Fatalf("store saw %d attempts, want 1 (no retry after the deadline)", got)
	}
	if st := retry.RetryStats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 — the cut backoff is not a completed retry", st.Retries)
	}
}

// cancelingStore cancels the caller's context from inside a failing Get,
// modeling a cancellation that lands while Retry would sit out its backoff.
type cancelingStore struct {
	kv.Store
	cancel context.CancelFunc
	ops    int
}

func (c *cancelingStore) Get(ctx context.Context, table, hashKey string) ([]kv.Item, time.Duration, error) {
	c.ops++
	c.cancel()
	return nil, 5 * time.Millisecond, kv.ErrThrottled
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

	_, d, err := retry.Get(ctx, "t", "k")
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
	_, d, err = retry.Get(ctx, "t", "k")
	if !errors.Is(err, context.Canceled) || d != 0 || cs.ops != 1 {
		t.Fatalf("pre-cancelled call: d=%v ops=%d err=%v, want 0/1/Canceled", d, cs.ops, err)
	}
}

// The shared per-query retry-token pool bounds retries ACROSS calls, not
// per call: tokens consumed by one operation are gone for the next.
func TestRetrySharedBudgetTokens(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	faulty := &chaos.EveryNth{Store: base, FailEvery: 1}
	retry := kv.NewRetry(faulty)
	retry.BaseBackoff = time.Millisecond

	budget := resilience.NewBudget(0, 1) // one retry token for the whole query
	ctx := resilience.NewContext(context.Background(), budget)
	_, _, err := retry.Get(ctx, "t", "k")
	if !errors.Is(err, resilience.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if got := faulty.Injected(); got != 2 {
		t.Fatalf("store saw %d attempts, want 2 (initial + the single budgeted retry)", got)
	}
	// The pool is empty now: the next call fails without any retry.
	_, _, err = retry.Get(ctx, "t", "k")
	if !errors.Is(err, resilience.ErrRetryBudget) {
		t.Fatalf("second call err = %v, want ErrRetryBudget", err)
	}
	if got := faulty.Injected(); got != 3 {
		t.Fatalf("store saw %d attempts, want 3 (one attempt, no tokens left)", got)
	}
}

// shardKeys returns n hash keys routing to each of the given shards.
func shardKeys(shards, perShard int) [][]string {
	out := make([][]string, shards)
	for i := 0; ; i++ {
		key := fmt.Sprintf("key%05d", i)
		k := kv.ShardIndex(key, shards)
		if len(out[k]) < perShard {
			out[k] = append(out[k], key)
		}
		done := true
		for _, g := range out {
			if len(g) < perShard {
				done = false
				break
			}
		}
		if done {
			return out
		}
	}
}

// Satellite fix: scatter-mode error combining surfaces only the
// lowest-indexed shard's failure, but EVERY failing shard must count on
// its kv.shard.K.errors counter so the others stay visible in obs.
func TestScatterPerShardErrorCounters(t *testing.T) {
	mk := func(fail bool) kv.Store {
		base := dynamodb.New(meter.NewLedger())
		if err := base.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		if !fail {
			return base
		}
		return &chaos.EveryNth{Store: base, FailEvery: 1, Err: kv.ErrInternal}
	}
	sh := kv.NewShardedStores([]kv.Store{mk(false), mk(true), mk(true)})
	sink := newTestSink()
	sh.Sink = sink

	groups := shardKeys(3, 2)
	var keys []string
	for _, g := range groups {
		keys = append(keys, g...)
	}
	_, _, err := sh.BatchGet(context.Background(), "t", keys)
	if !errors.Is(err, kv.ErrInternal) {
		t.Fatalf("err = %v, want the deterministic lowest-shard internal error", err)
	}
	if got := sink.get(kv.ShardErrorMetric(1)); got != 1 {
		t.Errorf("shard 1 errors = %d, want 1", got)
	}
	if got := sink.get(kv.ShardErrorMetric(2)); got != 1 {
		t.Errorf("shard 2 errors = %d, want 1 (previously invisible)", got)
	}
	if got := sink.get(kv.ShardErrorMetric(0)); got != 0 {
		t.Errorf("shard 0 errors = %d, want 0", got)
	}
}

// Breaker path: a persistently failing shard opens its breaker, the
// scatter degrades to a partial result carrying a DegradedError, the
// half-open probe is admitted, and recovery recloses the breaker —
// open → half-open → closed, all on deterministic operation counts.
func TestScatterBreakerDegradesToPartialResult(t *testing.T) {
	base0 := dynamodb.New(meter.NewLedger())
	base1 := dynamodb.New(meter.NewLedger())
	for _, b := range []kv.Store{base0, base1} {
		if err := b.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
	}
	groups := shardKeys(2, 2)
	for k, base := range []kv.Store{base0, base1} {
		for _, key := range groups[k] {
			if _, err := base.Put("t", item(key, "r", attr("a", "v"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	failing := &chaos.EveryNth{Store: base1, FailEvery: 1, Err: kv.ErrInternal}
	sh := kv.NewShardedStores([]kv.Store{base0, failing})
	br := resilience.NewBreakerSet(2)
	br.FailThreshold = 2
	br.OpenOps = 1
	sh.Breakers = br

	var keys []string
	for _, g := range groups {
		keys = append(keys, g...)
	}
	get := func() (map[string][]kv.Item, error) {
		out, _, err := sh.BatchGet(context.Background(), "t", keys)
		return out, err
	}

	// Two failures open shard 1's breaker.
	for i := 0; i < 2; i++ {
		if _, err := get(); !errors.Is(err, kv.ErrInternal) {
			t.Fatalf("call %d err = %v, want internal", i, err)
		}
	}
	if st := br.State(1); st != resilience.BreakerOpen {
		t.Fatalf("state after failures = %v, want open", st)
	}

	// Open: the shard is shed and the call degrades to a partial result.
	out, err := get()
	de := kv.AsDegraded(err)
	if de == nil {
		t.Fatalf("err = %v, want DegradedError", err)
	}
	if len(de.Shards) != 1 || de.Shards[0] != 1 {
		t.Fatalf("degraded shards = %v, want [1]", de.Shards)
	}
	wantMissing := append([]string(nil), groups[1]...)
	sort.Strings(wantMissing)
	if fmt.Sprint(de.Keys) != fmt.Sprint(wantMissing) {
		t.Fatalf("degraded keys = %v, want %v", de.Keys, wantMissing)
	}
	for _, key := range groups[0] {
		if len(out[key]) != 1 {
			t.Fatalf("partial result lost healthy shard key %q", key)
		}
	}
	for _, key := range groups[1] {
		if len(out[key]) != 0 {
			t.Fatalf("partial result contains shed shard key %q", key)
		}
	}
	if st := br.State(1); st != resilience.BreakerHalfOpen {
		t.Fatalf("state after shed = %v, want half-open", st)
	}

	// The half-open probe fails and reopens the breaker.
	if _, err := get(); !errors.Is(err, kv.ErrInternal) {
		t.Fatalf("probe err = %v, want internal", err)
	}
	if st := br.State(1); st != resilience.BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}

	// One more shed brings it half-open; then the shard heals and the
	// successful probe recloses the breaker.
	if _, err := get(); kv.AsDegraded(err) == nil {
		t.Fatalf("err = %v, want degraded", err)
	}
	failing.FailEvery = 0 // heal
	if _, err := get(); err != nil {
		t.Fatalf("healed probe err = %v", err)
	}
	if st := br.State(1); st != resilience.BreakerClosed {
		t.Fatalf("state after healed probe = %v, want closed", st)
	}
	out, err = get()
	if err != nil {
		t.Fatalf("reclosed err = %v", err)
	}
	if len(out) != len(keys) {
		t.Fatalf("reclosed result has %d keys, want %d", len(out), len(keys))
	}
	st := br.Stats()
	if st.Opens != 2 || st.HalfOpens != 2 || st.Sheds != 2 {
		t.Fatalf("breaker stats = %+v, want {Opens:2 HalfOpens:2 Sheds:2}", st)
	}
}

// tailFixture is one scatter store under a straggler-heavy chaos plan.
type tailFixture struct {
	sh      *kv.Sharded
	ledgers []*meter.Ledger
	keys    []string
}

func newTailFixture(t *testing.T, seed int64, shards, perShard int, hedged bool) *tailFixture {
	t.Helper()
	stores := make([]kv.Store, shards)
	ledgers := make([]*meter.Ledger, shards)
	for k := 0; k < shards; k++ {
		ledgers[k] = meter.NewLedger()
		base := dynamodb.New(ledgers[k])
		// Independent per-shard injectors: each shard's fault schedule
		// depends only on its own op order, so the concurrent fan-out
		// stays deterministic.
		inj := chaos.NewInjector(chaos.Plan{
			Seed:  seed*1000 + int64(k),
			Rates: chaos.Rates{Straggle: 0.03, StraggleFactor: 8},
		})
		stores[k] = chaos.WrapStore(base, inj)
	}
	sh := kv.NewShardedStores(stores)
	if hedged {
		h := resilience.NewHedger(shards)
		h.Quantile = 0.9
		sh.Hedger = h
	}
	if err := sh.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	groups := shardKeys(shards, perShard)
	var keys []string
	val := make([]byte, 1024)
	for _, g := range groups {
		for _, key := range g {
			keys = append(keys, key)
			it := kv.Item{HashKey: key, RangeKey: "r", Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{val}}}}
			if _, err := sh.Put("t", it); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Strings(keys)
	return &tailFixture{sh: sh, ledgers: ledgers, keys: keys}
}

// digest renders a BatchGet result deterministically.
func digest(out map[string][]kv.Item) string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + ":"
		for _, it := range out[k] {
			s += it.RangeKey + "/" + strconv.Itoa(int(it.Size())) + ","
		}
		s += ";"
	}
	return s
}

// percentile returns the nearest-rank q-th percentile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

func (f *tailFixture) billedGets() int64 {
	var n int64
	for _, l := range f.ledgers {
		n += l.Snapshot().Get(f.sh.Backend(), "get").Calls
	}
	return n
}

// runTail drives calls cold scatter BatchGets and returns per-call modeled
// durations plus a result digest.
func runTail(t *testing.T, f *tailFixture, calls int) ([]time.Duration, string) {
	t.Helper()
	loadGets := f.billedGets()
	if loadGets != 0 {
		t.Fatalf("unexpected billed gets before the run: %d", loadGets)
	}
	var ds []time.Duration
	var dig string
	for c := 0; c < calls; c++ {
		out, d, err := f.sh.BatchGet(context.Background(), "t", f.keys)
		if err != nil {
			t.Fatalf("call %d: %v", c, err)
		}
		ds = append(ds, d)
		g := digest(out)
		if c == 0 {
			dig = g
		} else if g != dig {
			t.Fatalf("call %d returned a different result", c)
		}
	}
	return ds, dig
}

// The acceptance-criterion differential: under a seeded straggler-heavy
// chaos plan, hedged scatter reads return byte-identical answers, improve
// p99 modeled latency at least 2x, stay within 10% billed-request
// overhead, and reproduce their counters exactly across runs.
func TestHedgedScatterDifferential(t *testing.T) {
	seed := tailSeed(t)
	const shards, perShard, calls = 8, 5, 160

	plain := newTailFixture(t, seed, shards, perShard, false)
	plainDs, plainDig := runTail(t, plain, calls)

	hedged := newTailFixture(t, seed, shards, perShard, true)
	hedgedDs, hedgedDig := runTail(t, hedged, calls)

	// Byte-identical answers.
	if plainDig != hedgedDig {
		t.Fatal("hedged run returned different answers")
	}

	// Tail latency: p99 improves at least 2x; p50 does not regress.
	p99Plain, p99Hedged := percentile(plainDs, 0.99), percentile(hedgedDs, 0.99)
	if p99Hedged*2 > p99Plain {
		t.Errorf("p99 %v -> %v: improvement below 2x", p99Plain, p99Hedged)
	}
	if p50p, p50h := percentile(plainDs, 0.50), percentile(hedgedDs, 0.50); p50h > p50p {
		t.Errorf("p50 regressed: %v -> %v", p50p, p50h)
	}

	// The hedge counters are nonzero and internally consistent.
	hs := hedged.sh.Hedger.Stats()
	if hs.Fired == 0 || hs.Won == 0 {
		t.Fatalf("hedge stats = %+v, want nonzero fired and won", hs)
	}
	if hs.Fired != hs.Won+hs.WastedBill {
		t.Errorf("hedge stats inconsistent: %+v (fired = won + wasted)", hs)
	}

	// Bill overhead: the hedged run issues at most 10% more billed get
	// requests than the clean run.
	gPlain, gHedged := plain.billedGets(), hedged.billedGets()
	if gHedged-gPlain != hs.Fired {
		t.Errorf("extra billed gets = %d, want the %d fired hedges", gHedged-gPlain, hs.Fired)
	}
	if overhead := float64(gHedged-gPlain) / float64(gPlain); overhead > 0.10 {
		t.Errorf("bill overhead %.1f%% exceeds 10%%", overhead*100)
	}

	// Determinism: an identical second hedged run reproduces durations and
	// counters exactly.
	hedged2 := newTailFixture(t, seed, shards, perShard, true)
	hedged2Ds, _ := runTail(t, hedged2, calls)
	if fmt.Sprint(hedgedDs) != fmt.Sprint(hedged2Ds) {
		t.Fatal("hedged modeled durations differ across identical runs")
	}
	if hs2 := hedged2.sh.Hedger.Stats(); hs2 != hs {
		t.Fatalf("hedge counters differ across identical runs: %+v vs %+v", hs2, hs)
	}
	t.Logf("seed %d: p50 %v->%v p99 %v->%v fired=%d won=%d wasted=%d bill %d->%d (+%.1f%%)",
		seed, percentile(plainDs, 0.5), percentile(hedgedDs, 0.5), p99Plain, p99Hedged,
		hs.Fired, hs.Won, hs.WastedBill, gPlain, gHedged, 100*float64(gHedged-gPlain)/float64(gPlain))
}
