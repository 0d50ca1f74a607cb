package kv_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// TestReadsStopOnContext runs the same two contexts — cancelled and live —
// through every read stack. A cancelled context comes back as its error
// from Get, BatchGet and Read alike, with no key visited and no get metered
// after the cancel, whichever layer noticed (MemStore at the bottom, Retry
// before an attempt). A live one returns items byte-equal to the bare
// MemStore's, and Read visits every key exactly once, also where the chaos
// store serves partial batches and Retry re-reads the remainder.
func TestReadsStopOnContext(t *testing.T) {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	chaosUnderRetry := func(l *meter.Ledger) kv.Store {
		inj := chaos.NewInjector(chaos.Plan{Seed: 3, Rates: chaos.Rates{Throttle: 0.3, PartialBatch: 0.5}})
		r := kv.NewRetry(chaos.WrapStore(dynamodb.New(l), inj))
		r.MaxAttempts = 100
		return r
	}
	stacks := map[string]func(l *meter.Ledger) kv.Store{
		"memstore":          func(l *meter.Ledger) kv.Store { return dynamodb.New(l) },
		"retry":             func(l *meter.Ledger) kv.Store { return kv.NewRetry(dynamodb.New(l)) },
		"chaos-under-retry": chaosUnderRetry,
	}
	load := func(s kv.Store) {
		t.Helper()
		if err := s.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, err := s.BatchPut("t", []kv.Item{item(k, "r", attr("a", "value of "+k))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := dynamodb.New(meter.NewLedger())
	load(ref)
	wantAll, _, err := kv.BatchGet(context.Background(), ref, "t", keys)
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
			one, _, errGet := kv.Get(c.ctx, s, "t", keys[0])
			all, _, errBatch := kv.BatchGet(c.ctx, s, "t", keys)
			visited := map[string][]kv.Item{}
			visits := 0
			_, errRead := s.Read(c.ctx, "t", keys, func(k string, recs *kv.Records) {
				visits++
				for recs.Next() {
					it := kv.Item{HashKey: k, RangeKey: recs.RangeKey()}
					for recs.NextAttr() {
						a := kv.Attr{Name: recs.Name()}
						for v, ok := recs.NextValue(); ok; v, ok = recs.NextValue() {
							a.Values = append(a.Values, v)
						}
						it.Attrs = append(it.Attrs, a)
					}
					visited[k] = append(visited[k], it)
				}
			})
			if c.want != nil {
				if !errors.Is(errGet, c.want) || !errors.Is(errBatch, c.want) || !errors.Is(errRead, c.want) {
					t.Errorf("%s, %s: Get err = %v, BatchGet err = %v, Read err = %v, want %v from all", name, c.name, errGet, errBatch, errRead, c.want)
				}
				if visits != 0 {
					t.Errorf("%s, %s: Read visited %d keys", name, c.name, visits)
				}
				if after := gets(); after != before {
					t.Errorf("%s, %s: %d gets metered after the stop", name, c.name, after-before)
				}
				continue
			}
			if errGet != nil || errBatch != nil || errRead != nil {
				t.Fatalf("%s, %s: Get err = %v, BatchGet err = %v, Read err = %v", name, c.name, errGet, errBatch, errRead)
			}
			if !reflect.DeepEqual(one, wantAll[keys[0]]) || !reflect.DeepEqual(all, wantAll) {
				t.Errorf("%s, %s: items differ from the bare MemStore's", name, c.name)
			}
			if visits != len(keys) {
				t.Errorf("%s, %s: Read visited %d keys, want each of %d once", name, c.name, visits, len(keys))
			}
			for _, k := range keys {
				if err := sameItems(visited[k], wantAll[k]); err != nil {
					t.Errorf("%s, %s: Read of key %s: %v", name, c.name, k, err)
				}
			}
		}
		if src, ok := s.(kv.RetryStatsSource); ok && strings.Contains(name, "chaos") && src.RetryStats().PartialBatches == 0 {
			t.Errorf("%s: no partial batch was served, so the re-read of the remainder went untested", name)
		}
	}
}
