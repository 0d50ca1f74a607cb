package chaos_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// straggleStore builds a chaos-wrapped store preloaded with one row, and
// returns it with the tally of the faults it injects.
func straggleStore(t *testing.T, plan chaos.Plan) (*chaos.Store, tally) {
	t.Helper()
	base := dynamodb.New(meter.NewLedger())
	if err := base.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Put("t", item("h", "r", "v")); err != nil {
		t.Fatal(err)
	}
	inj, faults := newInjector(plan)
	return chaos.WrapStore(base, inj), faults
}

func TestStragglerInjection(t *testing.T) {
	// A guaranteed straggle multiplies the modeled read latency by the
	// configured factor while the result stays correct.
	clean, _ := straggleStore(t, chaos.Plan{Seed: 1})
	cItems, cd, err := clean.Get(context.Background(), "t", "h")
	if err != nil {
		t.Fatal(err)
	}

	slow, faults := straggleStore(t, chaos.Plan{Seed: 1, Rates: chaos.Rates{
		Straggle: 1, StraggleFactor: 8,
	}})
	sItems, sd, err := slow.Get(context.Background(), "t", "h")
	if err != nil {
		t.Fatal(err)
	}
	if len(sItems) != len(cItems) {
		t.Fatalf("straggler changed the result: %d vs %d items", len(sItems), len(cItems))
	}
	if want := time.Duration(float64(cd) * 8); sd != want {
		t.Fatalf("straggled latency = %v, want %v (8x %v)", sd, want, cd)
	}
	if got := faults.counts().Stragglers; got != 1 {
		t.Fatalf("Stragglers = %d, want 1", got)
	}

	// BatchGet straggles the same way.
	_, bd, err := slow.BatchGet(context.Background(), "t", []string{"h"})
	if err != nil {
		t.Fatal(err)
	}
	_, cbd, err := clean.BatchGet(context.Background(), "t", []string{"h"})
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(float64(cbd) * 8); bd != want {
		t.Fatalf("straggled batch latency = %v, want %v", bd, want)
	}
	if got := faults.counts().Stragglers; got != 2 {
		t.Fatalf("Stragglers = %d, want 2", got)
	}
}

func TestStragglerDefaultFactorAndDeterminism(t *testing.T) {
	run := func() (time.Duration, chaos.Counts) {
		s, faults := straggleStore(t, chaos.Plan{Seed: 7, Rates: chaos.Rates{Straggle: 0.5}})
		var total time.Duration
		for i := 0; i < 20; i++ {
			_, d, err := s.Get(context.Background(), "t", "h")
			if err != nil {
				t.Fatal(err)
			}
			total += d
		}
		return total, faults.counts()
	}
	d1, c1 := run()
	d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Fatalf("straggler schedule not deterministic: %v/%+v vs %v/%+v", d1, c1, d2, c2)
	}
	if c1.Stragglers == 0 {
		t.Fatal("rate 0.5 over 20 reads injected no stragglers")
	}
	// Default factor is 10x: total must exceed the clean baseline by
	// exactly 9 extra units per straggler.
	clean, _ := straggleStore(t, chaos.Plan{Seed: 7})
	_, unit, err := clean.Get(context.Background(), "t", "h")
	if err != nil {
		t.Fatal(err)
	}
	want := 20*unit + time.Duration(c1.Stragglers)*9*unit
	if d1 != want {
		t.Fatalf("total latency = %v, want %v (%d stragglers at 10x)", d1, want, c1.Stragglers)
	}
}

// TestStragglerWritesUntouched pins the contract that Straggle only affects
// reads: the write path's modeled latency is identical with and without a
// certain-straggle plan.
func TestStragglerWritesUntouched(t *testing.T) {
	clean, _ := straggleStore(t, chaos.Plan{Seed: 3})
	slow, _ := straggleStore(t, chaos.Plan{Seed: 3, Rates: chaos.Rates{Straggle: 1, StraggleFactor: 16}})
	cd, err := clean.Put("t", item("h2", "r", "v"))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := slow.Put("t", item("h2", "r", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if cd != sd {
		t.Fatalf("straggle plan changed write latency: %v vs %v", sd, cd)
	}
	items := []kv.Item{item("b", "r0", "v"), item("b", "r1", "v")}
	cbd, err := clean.BatchPut("t", items)
	if err != nil {
		t.Fatal(err)
	}
	sbd, err := slow.BatchPut("t", items)
	if err != nil {
		t.Fatal(err)
	}
	if cbd != sbd {
		t.Fatalf("straggle plan changed batch write latency: %v vs %v", sbd, cbd)
	}
}
