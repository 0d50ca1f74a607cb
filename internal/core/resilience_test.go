package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/ec2"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/resilience"
)

const tailQuery = `//painting[/name~"Lion", /painter[/name[/last{val}]]]`

// tailWarehouse builds a warehouse from cfg, indexes the paintings corpus
// through the live pipeline, and returns a query instance. Indexing is not
// subject to the query deadline, so even a nanosecond budget loads fine.
func tailWarehouse(t *testing.T, cfg Config) (*Warehouse, *ec2.Instance) {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)
	return w, ec2.Launch(w.ledger, ec2.XL)
}

func renderRows(res *engine.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprintf("%s|%v", r.URI, r.Cols)
	}
	sort.Strings(rows)
	return rows
}

// A nanosecond query deadline fails the query with the modeled-deadline
// error, while a generous deadline is behaviourally invisible: identical
// rows, identical billed gets, identical modeled look-up time as the
// no-deadline run.
func TestQueryDeadlineEnforcedAndHarmless(t *testing.T) {
	plain, pin := tailWarehouse(t, Config{Strategy: index.LUI})
	res, pst, err := plain.RunQueryOn(pin, tailQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(res)
	if len(want) == 0 {
		t.Fatal("reference query returned no rows")
	}

	tight, tin := tailWarehouse(t, Config{Strategy: index.LUI, QueryDeadline: time.Nanosecond})
	_, _, err = tight.RunQueryOn(tin, tailQuery, true)
	if !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("tight-deadline err = %v, want ErrQueryFailed", err)
	}
	if !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("tight-deadline err %q does not name the deadline", err)
	}

	generous, gin := tailWarehouse(t, Config{Strategy: index.LUI, QueryDeadline: time.Hour, QueryRetryBudget: 100})
	gres, gst, err := generous.RunQueryOn(gin, tailQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	got := renderRows(gres)
	if len(got) != len(want) {
		t.Fatalf("generous deadline returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q under deadline, %q without", i, got[i], want[i])
		}
	}
	if gst.GetOps != pst.GetOps || gst.LookupGetTime != pst.LookupGetTime {
		t.Fatalf("budgeted run billed %d gets in %v, unbudgeted %d in %v — the budget must not perturb the read path",
			gst.GetOps, gst.LookupGetTime, pst.GetOps, pst.LookupGetTime)
	}
}

// With every store read throttled and a single shared retry token, a query
// stops with the retry-budget error instead of backing off indefinitely;
// once the fault clears the next query (with its own fresh budget) succeeds.
func TestQueryRetryBudgetExhaustion(t *testing.T) {
	seed := chaosSeed(t)
	w, in := tailWarehouse(t, Config{
		Strategy:         index.LUI,
		Chaos:            &chaos.Plan{Seed: seed}, // all rates zero until flipped
		QueryRetryBudget: 1,
	})

	if _, _, err := w.RunQueryOn(in, tailQuery, true); err != nil {
		t.Fatalf("pre-fault query: %v", err)
	}

	w.ChaosInjector().SetRates(chaos.Rates{Throttle: 1})
	_, _, err := w.RunQueryOn(in, tailQuery, true)
	if !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("throttled err = %v, want ErrQueryFailed", err)
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("throttled err %q does not name the retry budget", err)
	}

	w.ChaosInjector().SetRates(chaos.Rates{})
	if _, _, err := w.RunQueryOn(in, tailQuery, true); err != nil {
		t.Fatalf("post-heal query: %v", err)
	}
}

// CoalesceLookups routes every query read through the single-flight group
// without changing any answer; with a single front end the group only ever
// sees leaders, and the counters surface in the registry.
func TestCoalesceLookupsKeepsAnswers(t *testing.T) {
	plain, pin := tailWarehouse(t, Config{Strategy: index.LUP})
	res, _, err := plain.RunQueryOn(pin, tailQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(res)
	if l, h := coalesceCounts(plain); l != 0 || h != 0 {
		t.Fatalf("coalescing disabled but %d leaders, %d hits", l, h)
	}

	coal, cin := tailWarehouse(t, Config{Strategy: index.LUP, CoalesceLookups: true})
	cres, _, err := coal.RunQueryOn(cin, tailQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	got := renderRows(cres)
	if len(got) != len(want) {
		t.Fatalf("coalesced run returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q coalesced, %q plain", i, got[i], want[i])
		}
	}
	leaders, hits := coalesceCounts(coal)
	if leaders == 0 {
		t.Fatal("coalescing enabled but no reads went through the flight group")
	}
	if hits != 0 {
		t.Fatalf("sequential queries coalesced %d times — the group must not act as a cache", hits)
	}
}

// coalesceCounts reads the flight group's leader and hit counters from the
// registry.
func coalesceCounts(w *Warehouse) (leaders, hits int64) {
	r := w.Registry()
	return r.Counter(resilience.MetricCoalesceLeaders).Value(), r.Counter(resilience.MetricCoalesceHits).Value()
}

// The coalesced key counts aggregate into the warehouse look-up totals.
func TestLookupTotalsCarryResilienceCounters(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	w.noteLookup(index.LookupStats{CoalescedKeys: 2})
	w.noteLookup(index.LookupStats{CoalescedKeys: 1})
	if got := w.Registry().Counter("index.lookup.coalesced_keys").Value(); got != 3 {
		t.Fatalf("index.lookup.coalesced_keys = %d, want 3", got)
	}
}
