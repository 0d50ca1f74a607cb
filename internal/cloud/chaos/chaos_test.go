package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/s3"
	"repro/internal/cloud/sqs"
	"repro/internal/meter"
)

// tally is the map sink these tests install on an injector, which keeps no
// count of its own: faults by counter name.
type tally map[string]int64

func (m tally) Add(name string, delta int64) { m[name] += delta }

// total is the number of faults injected, of every class.
func (m tally) total() int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// newInjector returns an injector for the plan and the tally it streams to.
func newInjector(p chaos.Plan) (*chaos.Injector, tally) {
	inj, m := chaos.NewInjector(p), tally{}
	inj.SetSink(m)
	return inj, m
}

func item(hash, rng, val string) kv.Item {
	return kv.Item{HashKey: hash, RangeKey: rng, Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{kv.Value(val)}}}}
}

// driveStore issues a fixed operation sequence against s and returns the
// observed errors as a compact trace.
func driveStore(t *testing.T, s kv.Store) []string {
	t.Helper()
	var trace []string
	note := func(op string, err error) { trace = append(trace, fmt.Sprintf("%s:%v", op, err)) }
	for i := 0; i < 10; i++ {
		_, err := s.BatchPut("t", []kv.Item{item("h", fmt.Sprintf("r%02d", i), "v")})
		note("put", err)
	}
	batch := make([]kv.Item, 8)
	for i := range batch {
		batch[i] = item("b", fmt.Sprintf("r%02d", i), "v")
	}
	_, err := s.BatchPut("t", batch)
	note("batchPut", err)
	_, _, err = kv.Get(context.Background(), s, "t", "h")
	note("get", err)
	_, _, err = kv.BatchGet(context.Background(), s, "t", []string{"h", "b", "missing"})
	note("batchGet", err)
	_, err = s.BatchDelete("t", []kv.Key{{HashKey: "h", RangeKey: "r00"}, {HashKey: "b", RangeKey: "r01"}, {HashKey: "h", RangeKey: "missing"}})
	note("batchDelete", err)
	return trace
}

func TestZeroRatesAreExactPassThrough(t *testing.T) {
	ledgerPlain := meter.NewLedger()
	plain := dynamodb.New(ledgerPlain)
	if err := plain.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ledgerWrapped := meter.NewLedger()
	base := dynamodb.New(ledgerWrapped)
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	inj, faults := newInjector(chaos.Plan{Seed: 42}) // all rates zero
	wrapped := chaos.WrapStore(base, inj)

	driveStore(t, plain)
	driveStore(t, wrapped)

	// Billing parity: the wrapped run must meter exactly the same requests,
	// units and bytes as the unwrapped one.
	up, uw := ledgerPlain.Snapshot(), ledgerWrapped.Snapshot()
	if up.String() != uw.String() {
		t.Errorf("zero-rate chaos changed metered usage:\nplain:\n%s\nwrapped:\n%s", up, uw)
	}
	for _, op := range []string{"put", "get"} {
		if g, w := uw.Get(plain.Backend(), op), up.Get(plain.Backend(), op); g != w {
			t.Errorf("%s: wrapped counts %+v, unwrapped %+v", op, g, w)
		}
	}
	if n := faults.total(); n != 0 {
		t.Errorf("zero-rate injector recorded %d faults", n)
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func(seed int64) ([]string, tally) {
		base := dynamodb.New(meter.NewLedger())
		if err := base.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		inj, faults := newInjector(chaos.Plan{Seed: seed, Rates: chaos.Rates{
			Throttle: 0.2, Internal: 0.1, PartialBatch: 0.5,
		}})
		return driveStore(t, chaos.WrapStore(base, inj)), faults
	}
	t1, c1 := run(7)
	t2, c2 := run(7)
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Errorf("same seed, different traces:\n%v\n%v", t1, t2)
	}
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Errorf("same seed, different counts: %+v vs %+v", c1, c2)
	}
	if c1.total() == 0 {
		t.Error("aggressive rates injected nothing")
	}
	t3, _ := run(8)
	if fmt.Sprint(t1) == fmt.Sprint(t3) {
		t.Error("different seeds produced identical traces")
	}
}

func TestPartialBatchPutContract(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(chaos.Plan{Seed: 1, Rates: chaos.Rates{PartialBatch: 1}})
	wrapped := chaos.WrapStore(base, inj)

	batch := make([]kv.Item, 10)
	for i := range batch {
		batch[i] = item("h", fmt.Sprintf("r%02d", i), "v")
	}
	_, err := wrapped.BatchPut("t", batch)
	var pe *kv.PartialPutError
	if !errors.As(err, &pe) {
		t.Fatalf("BatchPut error = %v, want PartialPutError", err)
	}
	if len(pe.Unprocessed) == 0 || len(pe.Unprocessed) >= len(batch) {
		t.Fatalf("unprocessed = %d items, want a strict non-empty subset of %d", len(pe.Unprocessed), len(batch))
	}
	// The processed prefix must actually be in the store; the remainder not.
	if got, want := base.ItemCount("t"), int64(len(batch)-len(pe.Unprocessed)); got != want {
		t.Errorf("store holds %d items after partial put, want %d", got, want)
	}

	// A single-item batch can never be partial: the contract guarantees at
	// least one element lands, so retry loops always make progress.
	if _, err := wrapped.BatchPut("t", batch[:1]); err != nil {
		t.Errorf("single-item batch: %v, want success", err)
	}

	// kv.Retry completes the batch by resubmitting only the remainder.
	inj.SetRates(chaos.Rates{PartialBatch: 0.7})
	base2 := dynamodb.New(meter.NewLedger())
	if err := base2.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	retry := kv.NewRetry(chaos.WrapStore(base2, inj))
	retry.BaseBackoff = time.Microsecond
	if _, err := retry.BatchPut("t", batch); err != nil {
		t.Fatalf("retried BatchPut: %v", err)
	}
	if got := base2.ItemCount("t"); got != int64(len(batch)) {
		t.Errorf("store holds %d items after retried batch, want %d", got, len(batch))
	}
	st := retry.RetryStats()
	if st.PartialBatches == 0 {
		t.Error("retry absorbed no partial batches at rate 0.7")
	}
	if st.ItemsResubmitted == 0 || st.ItemsResubmitted >= int64(len(batch))*int64(st.PartialBatches) {
		t.Errorf("resubmitted %d items over %d partial outcomes: remainder-only accounting violated",
			st.ItemsResubmitted, st.PartialBatches)
	}
}

func TestPartialBatchDeleteContract(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	keys := make([]kv.Key, 10)
	for i := range keys {
		keys[i] = kv.Key{HashKey: "h", RangeKey: fmt.Sprintf("r%02d", i)}
		if _, err := base.BatchPut("t", []kv.Item{item("h", keys[i].RangeKey, "v")}); err != nil {
			t.Fatal(err)
		}
	}
	inj := chaos.NewInjector(chaos.Plan{Seed: 1, Rates: chaos.Rates{PartialBatch: 1}})
	wrapped := chaos.WrapStore(base, inj)

	pristine := append([]kv.Key(nil), keys...)
	_, err := wrapped.BatchDelete("t", keys)
	var pe *kv.PartialDeleteError
	if !errors.As(err, &pe) {
		t.Fatalf("BatchDelete error = %v, want PartialDeleteError", err)
	}
	n := len(keys) - len(pe.Unprocessed)
	if n == 0 || n == len(keys) {
		t.Fatalf("unprocessed = %d keys, want a strict non-empty subset of %d", len(pe.Unprocessed), len(keys))
	}
	// The deleted prefix is gone from the store; the reported remainder is
	// the rest of the batch, in a slice of its own, and still stored.
	if !reflect.DeepEqual(keys, pristine) || !reflect.DeepEqual(pe.Unprocessed, keys[n:]) || &pe.Unprocessed[0] == &keys[n] {
		t.Errorf("unprocessed %v of batch %v: want a copy of the batch's tail", pe.Unprocessed, keys)
	}
	if got := base.ItemCount("t"); got != int64(len(pe.Unprocessed)) {
		t.Errorf("store holds %d items after a partial delete, want %d", got, len(pe.Unprocessed))
	}

	// kv.Retry completes the batch by resubmitting only the remainder.
	retry := kv.NewRetry(wrapped)
	retry.BaseBackoff = time.Microsecond
	if _, err := retry.BatchDelete("t", pe.Unprocessed); err != nil {
		t.Fatalf("retried BatchDelete: %v", err)
	}
	if got := base.ItemCount("t"); got != 0 {
		t.Errorf("store holds %d items after the retried delete, want 0", got)
	}
	if retry.RetryStats().PartialBatches == 0 {
		t.Error("retry absorbed no partial batches at rate 1")
	}

	// EveryNth trips batch deletes like any other data operation.
	nth := &chaos.EveryNth{Store: base, FailEvery: 1}
	if _, err := nth.BatchDelete("t", keys[:1]); !errors.Is(err, kv.ErrThrottled) || nth.Injected() != 1 {
		t.Errorf("EveryNth batch delete: %v after %d injections, want ErrThrottled after 1", err, nth.Injected())
	}
}

func TestPartialBatchGetContract(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("h%02d", i)
		if _, err := base.BatchPut("t", []kv.Item{item(keys[i], "r", "v")}); err != nil {
			t.Fatal(err)
		}
	}
	inj := chaos.NewInjector(chaos.Plan{Seed: 3, Rates: chaos.Rates{PartialBatch: 1}})
	wrapped := chaos.WrapStore(base, inj)

	served := map[string]int{}
	count := func(k string, _ *kv.Records) { served[k]++ }
	_, err := wrapped.Read(context.Background(), "t", keys, count)
	var pe *kv.PartialGetError
	if !errors.As(err, &pe) {
		t.Fatalf("Read error = %v, want PartialGetError", err)
	}
	if len(pe.UnprocessedKeys) == 0 || len(pe.UnprocessedKeys) >= len(keys) {
		t.Fatalf("unprocessed = %d keys, want a strict non-empty subset of %d", len(pe.UnprocessedKeys), len(keys))
	}
	if len(served)+len(pe.UnprocessedKeys) != len(keys) {
		t.Errorf("served %d + unprocessed %d != requested %d", len(served), len(pe.UnprocessedKeys), len(keys))
	}
	for _, k := range pe.UnprocessedKeys {
		if served[k] != 0 {
			t.Errorf("key %s both served and reported unprocessed", k)
		}
	}

	// kv.Retry re-reads only the remainder: every key is served once,
	// however many partial outcomes it took.
	inj.SetRates(chaos.Rates{PartialBatch: 1})
	retry := kv.NewRetry(wrapped)
	retry.BaseBackoff = time.Microsecond
	served = map[string]int{}
	if _, err := retry.Read(context.Background(), "t", keys, count); err != nil {
		t.Fatalf("retried Read: %v", err)
	}
	for _, k := range keys {
		if served[k] != 1 {
			t.Errorf("key %s served %d times, want once", k, served[k])
		}
	}
	if retry.RetryStats().PartialBatches == 0 {
		t.Error("retry absorbed no partial batches at rate 1")
	}
}

func TestQueueDuplicateDelivery(t *testing.T) {
	q := sqs.New(meter.NewLedger(), clock.NewStepped(time.Unix(0, 0)))
	if err := q.CreateQueue("work"); err != nil {
		t.Fatal(err)
	}
	inj, faults := newInjector(chaos.Plan{Seed: 1, Rates: chaos.Rates{DupDeliver: 1}})
	wrapped := chaos.WrapQueues(q, inj)

	if _, _, err := wrapped.Send("work", "job"); err != nil {
		t.Fatal(err)
	}
	m1, _, err := wrapped.Receive(context.Background(), "work", time.Minute, 0)
	if err != nil || m1 == nil {
		t.Fatalf("first receive: %v, %v", m1, err)
	}
	// The injector released the lease: the same message is immediately
	// deliverable again, while the first receiver still processes it.
	m2, _, err := wrapped.Receive(context.Background(), "work", time.Minute, 0)
	if err != nil || m2 == nil {
		t.Fatalf("second receive: %v, %v", m2, err)
	}
	if m1.ID != m2.ID {
		t.Errorf("second receive returned %s, want duplicate of %s", m2.ID, m1.ID)
	}
	// The first receiver's receipt is now stale — deleting with it must
	// fail, exactly as after a real visibility expiry.
	if _, err := wrapped.Delete("work", m1.Receipt); !errors.Is(err, sqs.ErrStaleReceipt) {
		t.Errorf("delete with superseded receipt: %v, want ErrStaleReceipt", err)
	}
	if _, err := wrapped.Delete("work", m2.Receipt); err != nil {
		t.Errorf("delete with current receipt: %v", err)
	}
	if c := faults[chaos.MetricDupDeliveries]; c != 2 {
		t.Errorf("DupDeliveries = %d, want 2", c)
	}
}

func TestQueueForcedLeaseExpiry(t *testing.T) {
	clk := clock.NewStepped(time.Unix(0, 0))
	q := sqs.New(meter.NewLedger(), clk)
	if err := q.CreateQueue("work"); err != nil {
		t.Fatal(err)
	}
	inj, faults := newInjector(chaos.Plan{Seed: 1, Rates: chaos.Rates{ExpireLease: 1}})
	wrapped := chaos.WrapQueues(q, inj)

	if _, _, err := wrapped.Send("work", "job"); err != nil {
		t.Fatal(err)
	}
	// Ask for a long lease; chaos silently cuts it to an eighth.
	m1, _, err := wrapped.Receive(context.Background(), "work", 400*time.Millisecond, 0)
	if err != nil || m1 == nil {
		t.Fatalf("receive: %v, %v", m1, err)
	}
	clk.Advance(50 * time.Millisecond) // the shortened lease, well within the requested one
	inj.SetRates(chaos.Rates{})
	m2, _, err := wrapped.Receive(context.Background(), "work", time.Minute, 0)
	if err != nil || m2 == nil {
		t.Fatalf("post-expiry receive: %v, %v", m2, err)
	}
	if m2.ID != m1.ID {
		t.Errorf("post-expiry receive returned %s, want %s", m2.ID, m1.ID)
	}
	if c := faults[chaos.MetricExpiredLeases]; c != 1 {
		t.Errorf("ExpiredLeases = %d, want 1", c)
	}
}

func TestFilesTransientFaults(t *testing.T) {
	f := s3.New(meter.NewLedger())
	if err := f.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	inj, faults := newInjector(chaos.Plan{Seed: 1, Rates: chaos.Rates{S3Transient: 1}})
	wrapped := chaos.WrapFiles(f, inj)

	if _, err := wrapped.Put("b", "k", []byte("x"), nil); !errors.Is(err, s3.ErrTransient) {
		t.Errorf("put under full chaos: %v, want ErrTransient", err)
	}
	inj.SetRates(chaos.Rates{})
	if _, err := wrapped.Put("b", "k", []byte("x"), nil); err != nil {
		t.Fatalf("put after quiesce: %v", err)
	}
	inj.SetRates(chaos.Rates{S3Transient: 1})
	if _, _, err := wrapped.Get("b", "k"); !errors.Is(err, s3.ErrTransient) {
		t.Errorf("get under full chaos: %v, want ErrTransient", err)
	}
	if _, err := wrapped.Delete("b", "k"); !errors.Is(err, s3.ErrTransient) {
		t.Errorf("delete under full chaos: %v, want ErrTransient", err)
	}
	inj.SetRates(chaos.Rates{})
	if obj, _, err := wrapped.Get("b", "k"); err != nil || string(obj.Data) != "x" {
		t.Errorf("get after quiesce: %q, %v", obj.Data, err)
	}
	if c := faults[chaos.MetricS3Faults]; c != 3 {
		t.Errorf("S3Faults = %d, want 3", c)
	}
}

func TestEveryNthCustomError(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	faulty := &chaos.EveryNth{Store: base, FailEvery: 2, Err: kv.ErrInternal}
	var failures int
	for i := 0; i < 6; i++ {
		_, err := faulty.BatchPut("t", []kv.Item{item("h", fmt.Sprintf("r%d", i), "v")})
		if err != nil {
			if !errors.Is(err, kv.ErrInternal) {
				t.Fatalf("op %d: %v, want ErrInternal", i, err)
			}
			failures++
		}
	}
	if failures != 3 || faulty.Injected() != 3 {
		t.Errorf("failures = %d, Injected = %d, want 3 and 3", failures, faulty.Injected())
	}

	// Default error class is throttling.
	def := &chaos.EveryNth{Store: base, FailEvery: 1}
	if _, err := def.BatchPut("t", []kv.Item{item("h", "r", "v")}); !errors.Is(err, kv.ErrThrottled) {
		t.Errorf("default injected error = %v, want ErrThrottled", err)
	}
}
