package kv_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// TestReadsStopOnContext runs the same two contexts — cancelled and live —
// through every read stack. A cancelled context comes back as its error
// from Get and BatchGet alike with no get metered after the cancel,
// whichever layer noticed (MemStore at the bottom, Retry before an attempt);
// a live one returns items byte-equal to the bare MemStore's.
func TestReadsStopOnContext(t *testing.T) {
	var keys []string
	for _, g := range shardKeys(4, 2) {
		keys = append(keys, g...)
	}
	chaosUnderRetry := func(l *meter.Ledger) kv.Store {
		inj := chaos.NewInjector(chaos.Plan{Seed: 3, Rates: chaos.Rates{Throttle: 0.3, PartialBatch: 0.5}})
		r := kv.NewRetry(chaos.WrapStore(dynamodb.New(l), inj))
		r.MaxAttempts = 100
		return r
	}
	stacks := map[string]func(l *meter.Ledger) kv.Store{
		"memstore":          func(l *meter.Ledger) kv.Store { return dynamodb.New(l) },
		"sharded":           func(l *meter.Ledger) kv.Store { return kv.NewSharded(dynamodb.New(l), 4) }, // BatchGetMulti
		"retry":             func(l *meter.Ledger) kv.Store { return kv.NewRetry(dynamodb.New(l)) },
		"chaos-under-retry": chaosUnderRetry,
		// What core.New builds for Chaos + IndexShards > 1: Retry is not a
		// MultiStore, so Sharded hands the context to one BatchGet per shard.
		"sharded-over-retry-over-chaos": func(l *meter.Ledger) kv.Store { return kv.NewSharded(chaosUnderRetry(l), 4) },
	}
	load := func(s kv.Store) {
		t.Helper()
		if err := s.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, err := s.Put("t", item(k, "r", attr("a", "value of "+k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := dynamodb.New(meter.NewLedger())
	load(ref)
	wantAll, _, err := ref.BatchGet(context.Background(), "t", keys)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		want error // nil: the read goes through
	}{
		{"cancelled", cancelled, context.Canceled},
		{"live", context.Background(), nil},
	}
	for name, build := range stacks {
		ledger := meter.NewLedger()
		s := build(ledger)
		load(s)
		gets := func() int64 { return ledger.Snapshot().Get(s.Backend(), "get").Calls }
		for _, c := range cases {
			before := gets()
			one, _, errGet := s.Get(c.ctx, "t", keys[0])
			all, _, errBatch := s.BatchGet(c.ctx, "t", keys)
			if c.want != nil {
				if !errors.Is(errGet, c.want) || !errors.Is(errBatch, c.want) {
					t.Errorf("%s, %s: Get err = %v, BatchGet err = %v, want %v from both", name, c.name, errGet, errBatch, c.want)
				}
				if after := gets(); after != before {
					t.Errorf("%s, %s: %d gets metered after the stop", name, c.name, after-before)
				}
				continue
			}
			if errGet != nil || errBatch != nil {
				t.Fatalf("%s, %s: Get err = %v, BatchGet err = %v", name, c.name, errGet, errBatch)
			}
			if !reflect.DeepEqual(one, wantAll[keys[0]]) || !reflect.DeepEqual(all, wantAll) {
				t.Errorf("%s, %s: items differ from the bare MemStore's", name, c.name)
			}
		}
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
