package chaos_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// TestPerShardFaultPlan drives a hash-partitioned store whose chaos layer
// targets a single partition: only operations routed to that shard draw
// from the aggressive injector, the other shards see the zero-rate global
// plan, and the retry layer still converges the store to the same contents
// as a healthy unsharded run.
func TestPerShardFaultPlan(t *testing.T) {
	const shards = 4
	const target = 2

	var items []kv.Item
	var keys []string
	onTarget := 0
	for i := 0; i < 48; i++ {
		key := fmt.Sprintf("key-%03d", i)
		items = append(items, kv.Item{
			HashKey:  key,
			RangeKey: "r",
			Attrs:    []kv.Attr{{Name: "v", Values: []kv.Value{kv.Value(fmt.Sprintf("val-%03d", i))}}},
		})
		keys = append(keys, key)
		if kv.ShardIndex(key, shards) == target {
			onTarget++
		}
	}
	if onTarget == 0 {
		t.Fatalf("no test key routes to shard %d", target)
	}

	// putAll writes the items in provider-limit chunks.
	putAll := func(st kv.Store) error {
		lim := st.Limits().BatchPutItems
		for i := 0; i < len(items); i += lim {
			end := i + lim
			if end > len(items) {
				end = len(items)
			}
			if _, err := st.BatchPut("idx", items[i:end]); err != nil {
				return err
			}
		}
		return nil
	}

	// Healthy reference.
	ref := dynamodb.New(meter.NewLedger())
	if err := ref.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	if err := putAll(ref); err != nil {
		t.Fatal(err)
	}

	// Chaotic sharded run: global injector has zero rates; the target
	// shard's plan throttles and splits batches aggressively.
	global, globalFaults := newInjector(chaos.Plan{Seed: 3})
	cs := chaos.WrapStore(dynamodb.New(meter.NewLedger()), global)
	hot, hotFaults := newInjector(chaos.Plan{Seed: 5, Rates: chaos.Rates{Throttle: 0.3, Internal: 0.1, PartialBatch: 0.5}})
	cs.SetShardInjector(target, hot)
	retry := kv.NewRetry(cs)
	retry.MaxAttempts = 100
	sh := kv.NewSharded(retry, shards)
	if err := sh.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	if err := putAll(sh); err != nil {
		t.Fatalf("sharded put under per-shard chaos: %v", err)
	}
	got, _, err := sh.BatchGet(context.Background(), "idx", keys)
	if err != nil {
		t.Fatalf("sharded get under per-shard chaos: %v", err)
	}
	want, _, err := ref.BatchGet(context.Background(), "idx", keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("per-shard chaos changed read results")
	}
	if !reflect.DeepEqual(sh.DumpTable("idx"), ref.DumpTable("idx")) {
		t.Error("per-shard chaos changed final store contents")
	}

	hc := hotFaults.counts()
	if hc.Throttles+hc.Internals+hc.PartialBatches == 0 {
		t.Error("targeted shard drew no faults — the per-shard plan never fired")
	}
	if gc := globalFaults.counts(); gc != (chaos.Counts{}) {
		t.Errorf("zero-rate global injector tallied faults: %+v", gc)
	}
}

// TestShardInjectorRemoval: a nil injector removes the per-shard plan,
// restoring the store-wide injector for that shard.
func TestShardInjectorRemoval(t *testing.T) {
	global := chaos.NewInjector(chaos.Plan{Seed: 1, Rates: chaos.Rates{Throttle: 1}})
	cs := chaos.WrapStore(dynamodb.New(meter.NewLedger()), global)
	quiet := chaos.NewInjector(chaos.Plan{Seed: 2})
	cs.SetShardInjector(0, quiet)

	if err := cs.CreateTable("idx@0"); err != nil {
		t.Fatal(err)
	}
	it := kv.Item{HashKey: "k", RangeKey: "r"}
	if _, err := cs.Put("idx@0", it); err != nil {
		t.Fatalf("shard plan with zero rates should pass through, got %v", err)
	}
	cs.SetShardInjector(0, nil)
	if _, err := cs.Put("idx@0", it); err == nil {
		t.Error("after removing the shard plan, the always-throttle global injector should fire")
	}
}
