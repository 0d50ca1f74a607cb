package kv_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/resilience"
)

// TestReadsStopOnContext runs the same three contexts — cancelled, budget
// spent, live — through every read stack. A stopped context comes back as
// its error from Get and BatchGet alike with no get metered after the stop,
// whichever layer noticed (MemStore at the bottom, Retry before an attempt);
// a live one returns items byte-equal to the bare MemStore's.
func TestReadsStopOnContext(t *testing.T) {
	var keys []string
	for _, g := range shardKeys(4, 2) {
		keys = append(keys, g...)
	}
	stacks := map[string]func(ls []*meter.Ledger) kv.Store{
		"memstore":          func(ls []*meter.Ledger) kv.Store { return dynamodb.New(ls[0]) },
		"sharded-partition": func(ls []*meter.Ledger) kv.Store { return kv.NewSharded(dynamodb.New(ls[0]), 4) }, // BatchGetMulti
		"sharded-scatter": func(ls []*meter.Ledger) kv.Store {
			return kv.NewShardedStores([]kv.Store{dynamodb.New(ls[0]), dynamodb.New(ls[1]), dynamodb.New(ls[2]), dynamodb.New(ls[3])})
		},
		"retry": func(ls []*meter.Ledger) kv.Store { return kv.NewRetry(dynamodb.New(ls[0])) },
		"chaos-under-retry": func(ls []*meter.Ledger) kv.Store {
			inj := chaos.NewInjector(chaos.Plan{Seed: 3, Rates: chaos.Rates{Throttle: 0.3, PartialBatch: 0.5}})
			r := kv.NewRetry(chaos.WrapStore(dynamodb.New(ls[0]), inj))
			r.MaxAttempts = 100
			return r
		},
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
	spent := resilience.NewBudget(time.Millisecond, -1)
	spent.Charge(time.Millisecond)
	cases := []struct {
		name string
		ctx  context.Context
		want error // nil: the read goes through
	}{
		{"cancelled", cancelled, context.Canceled},
		{"budget spent", resilience.NewContext(context.Background(), spent), resilience.ErrDeadline},
		{"live", resilience.NewContext(context.Background(), resilience.NewBudget(time.Hour, -1)), nil},
	}
	for name, build := range stacks {
		ledgers := []*meter.Ledger{meter.NewLedger(), meter.NewLedger(), meter.NewLedger(), meter.NewLedger()}
		s := build(ledgers)
		load(s)
		gets := func() (n int64) {
			for _, l := range ledgers {
				n += l.Snapshot().Get(s.Backend(), "get").Calls
			}
			return n
		}
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
