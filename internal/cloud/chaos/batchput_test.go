package chaos_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// contractItem is item i of round r, freshly allocated on every call so a
// test can compare a batch with a pristine copy of itself.
func contractItem(r, i int) kv.Item {
	return kv.Item{
		HashKey:  fmt.Sprintf("h%d", i%5),
		RangeKey: fmt.Sprintf("r%02d-%02d", r, i),
		Attrs:    []kv.Attr{{Name: "doc.xml", Values: []kv.Value{kv.Value(fmt.Sprintf("v-%d-%d", r, i))}}},
	}
}

// TestBatchPutLeavesCallerSliceAlone holds every store of the stack to the
// BatchPut contract the bulk loader relies on: the call neither writes into
// the caller's slice nor keeps it. After each call the slice must equal a
// pristine copy; then the test scribbles over every item it passed, and at
// the end each stored item must still be the pristine one. Partial batches
// and injected failures are both driven.
func TestBatchPutLeavesCallerSliceAlone(t *testing.T) {
	faults := chaos.Rates{Throttle: 0.1, Internal: 0.1, PartialBatch: 0.6}
	stacks := []struct {
		name  string
		build func(base *kv.MemStore) kv.Store
	}{
		{"memstore", func(base *kv.MemStore) kv.Store { return base }},
		{"chaos", func(base *kv.MemStore) kv.Store {
			return chaos.WrapStore(base, chaos.NewInjector(chaos.Plan{Seed: 3, Rates: faults}))
		}},
		{"retry", func(base *kv.MemStore) kv.Store {
			return kv.NewRetry(chaos.WrapStore(base, chaos.NewInjector(chaos.Plan{Seed: 5, Rates: faults})))
		}},
		{"every-nth", func(base *kv.MemStore) kv.Store { return &chaos.EveryNth{Store: base, FailEvery: 3} }},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			base := dynamodb.New(meter.NewLedger())
			s := st.build(base)
			if err := s.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			var failed, partial int
			for r := 0; r < 40; r++ {
				// A batch cut from a longer buffer, the way the loader ships
				// them: the slots behind it must be left alone too.
				buf := make([]kv.Item, 30)
				for i := range buf {
					buf[i] = contractItem(r, i)
				}
				n := 1 + r%25
				_, err := s.BatchPut("t", buf[2:2+n:2+n])
				var pe *kv.PartialPutError
				switch {
				case errors.As(err, &pe):
					partial++
				case err != nil:
					failed++
				}
				for i := range buf {
					if want := contractItem(r, i); !reflect.DeepEqual(buf[i], want) {
						t.Fatalf("round %d: BatchPut (%v) changed the caller's item %d: %+v, want %+v", r, err, i, buf[i], want)
					}
				}
				for i := range buf {
					for _, v := range buf[i].Attrs[0].Values {
						for j := range v {
							v[j] = 'X'
						}
					}
					buf[i] = kv.Item{HashKey: "scribbled", RangeKey: "scribbled"}
				}
			}
			if (st.name == "chaos" || st.name == "every-nth") && failed+partial == 0 {
				t.Fatal("no call failed or was partial: the fault paths went undriven")
			}
			dump := base.DumpTable("t")
			if len(dump) == 0 {
				t.Fatal("nothing was stored")
			}
			for _, got := range dump {
				var r, i int
				if _, err := fmt.Sscanf(got.RangeKey, "r%02d-%02d", &r, &i); err != nil {
					t.Fatalf("stored range key %q: %v", got.RangeKey, err)
				}
				if want := contractItem(r, i); !reflect.DeepEqual(got, want) {
					t.Fatalf("stored item %+v, want %+v: the store kept the caller's memory", got, want)
				}
			}
		})
	}
}
