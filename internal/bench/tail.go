package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/resilience"
)

// This file measures the tail-latency experiment: cold scatter look-ups over
// a straggler-heavy seeded chaos plan, with and without hedged second
// requests. It quantifies the trade the resilience layer makes — modeled
// p99 latency bought with a bounded number of extra billed requests — the
// same differential TestHedgedScatterDifferential proves correct.

// TailPoint is one arm (hedging on or off) of the tail experiment.
type TailPoint struct {
	Hedged     bool
	Calls      int
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	BilledGets int64
	Fired      int64 // hedges issued (0 when not hedged)
	Won        int64 // hedges that beat the primary
	WastedBill int64 // hedges the primary beat anyway
}

// tailShardKeys returns perShard hash keys routing to each of shards shards.
func tailShardKeys(shards, perShard int) [][]string {
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

// tailStore builds a scatter-sharded store whose shards straggle under
// independent seeded injectors, loaded with perShard 1 KB items per shard.
func tailStore(seed int64, shards, perShard int, hedged bool) (*kv.Sharded, []*meter.Ledger, []string, error) {
	stores := make([]kv.Store, shards)
	ledgers := make([]*meter.Ledger, shards)
	for k := 0; k < shards; k++ {
		ledgers[k] = meter.NewLedger()
		base := dynamodb.New(ledgers[k])
		// Independent per-shard injectors keep each shard's fault schedule a
		// function of its own op order, so the fan-out is deterministic.
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
		return nil, nil, nil, err
	}
	groups := tailShardKeys(shards, perShard)
	var keys []string
	val := make([]byte, 1024)
	for _, g := range groups {
		for _, key := range g {
			keys = append(keys, key)
			it := kv.Item{HashKey: key, RangeKey: "r", Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{val}}}}
			if _, err := sh.Put("t", it); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	sort.Strings(keys)
	return sh, ledgers, keys, nil
}

// tailPercentile returns the nearest-rank q-th percentile of ds.
func tailPercentile(ds []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// RunTail runs calls cold scatter look-ups across shards shards, hedging off
// then on, under the same seeded straggler plan, and reports the modeled
// latency distribution and the billed-request count of each arm.
func RunTail(seed int64, shards, perShard, calls int) ([]TailPoint, error) {
	var out []TailPoint
	for _, hedged := range []bool{false, true} {
		sh, ledgers, keys, err := tailStore(seed, shards, perShard, hedged)
		if err != nil {
			return nil, err
		}
		var ds []time.Duration
		for c := 0; c < calls; c++ {
			_, d, err := sh.BatchGet(context.Background(), "t", keys)
			if err != nil {
				return nil, fmt.Errorf("bench: tail call %d (hedged=%v): %w", c, hedged, err)
			}
			ds = append(ds, d)
		}
		var billed int64
		for _, l := range ledgers {
			billed += l.Snapshot().Get(sh.Backend(), "get").Calls
		}
		p := TailPoint{
			Hedged:     hedged,
			Calls:      calls,
			P50:        tailPercentile(ds, 0.50),
			P95:        tailPercentile(ds, 0.95),
			P99:        tailPercentile(ds, 0.99),
			BilledGets: billed,
		}
		if hedged {
			hs := sh.Hedger.Stats()
			p.Fired, p.Won, p.WastedBill = hs.Fired, hs.Won, hs.WastedBill
		}
		out = append(out, p)
	}
	return out, nil
}

// TailTable renders the tail experiment in the paper's table style.
func TailTable(points []TailPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Tail latency: cold scatter look-up under 3% stragglers (8x slowdown), modeled time")
	fmt.Fprintf(&b, "  %-8s %6s %10s %10s %10s %12s %7s %5s %7s\n",
		"hedging", "calls", "p50", "p95", "p99", "billed gets", "fired", "won", "wasted")
	var plain, hedged *TailPoint
	for i := range points {
		p := &points[i]
		name := "off"
		if p.Hedged {
			name = "on"
			hedged = p
		} else {
			plain = p
		}
		fmt.Fprintf(&b, "  %-8s %6d %10s %10s %10s %12d %7d %5d %7d\n",
			name, p.Calls, p.P50, p.P95, p.P99, p.BilledGets, p.Fired, p.Won, p.WastedBill)
	}
	if plain != nil && hedged != nil && hedged.P99 > 0 && plain.BilledGets > 0 {
		fmt.Fprintf(&b, "  p99 improvement %.1fx, bill overhead %.1f%%\n",
			float64(plain.P99)/float64(hedged.P99),
			100*float64(hedged.BilledGets-plain.BilledGets)/float64(plain.BilledGets))
	}
	return b.String()
}
