package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/kv"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// The sharding experiment measures both claims of the partitioned index:
//
//   - Partition mode is free: hash-partitioning the index tables of one
//     provisioned store must leave indexing time, workload time, request
//     counts and the request bill exactly where the unsharded run put them
//     (sharded batches ship as single multi-table requests). The table
//     rows at shards 1/2/4/8 should be identical in those columns.
//
//   - Scatter mode buys throughput with money: spreading shards over
//     independent stores divides batch-read latency by the fan-out, while
//     the provisioned-capacity bill multiplies by it. The last two columns
//     show that trade.

// ShardRow is one shard count's measurements.
type ShardRow struct {
	Shards int

	// Warehouse run on a single provisioned store (partition mode).
	IndexTotal   time.Duration // modeled end-to-end indexing time
	WorkloadTime time.Duration // summed modeled response time, XMark workload
	Calls        int64         // DynamoDB requests (puts + gets)
	RequestCost  pricing.USD   // billed DynamoDB request cost

	// Scatter-mode microbenchmark over independent stores.
	ScatterGet    time.Duration // modeled latency, batch-reading scatterKeys keys
	ProvisionedHr pricing.USD   // provisioned throughput cost per hour
}

const scatterKeys = 400

// RunShard builds a 2LUPI warehouse at each shard count, replays the XMark
// workload, and measures a scatter-mode batch read over as many independent
// stores.
func RunShard(c *Corpus) ([]ShardRow, error) {
	book := pricing.Singapore2012()
	perf := dynamodb.DefaultPerf()
	var rows []ShardRow
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := core.Config{Strategy: index.TwoLUPI, IndexShards: shards}
		w, rep, _, err := BuildWarehouseCfg(c, cfg, 8, ec2.Large)
		if err != nil {
			return nil, err
		}
		proc := ec2.Launch(w.Ledger(), ec2.XL)
		var workloadTime time.Duration
		for _, q := range workload.XMark() {
			_, qs, err := w.RunQueryOn(proc, q.Text, true)
			if err != nil {
				return nil, err
			}
			workloadTime += qs.ResponseTime
		}
		u := w.Ledger().Snapshot()
		scatter, err := scatterGetTime(shards)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ShardRow{
			Shards:       shards,
			IndexTotal:   rep.Total,
			WorkloadTime: workloadTime,
			Calls:        u.Get(dynamodb.Backend, "put").Calls + u.Get(dynamodb.Backend, "get").Calls,
			RequestCost:  book.Bill(u).Line(dynamodb.Backend),
			ScatterGet:   scatter,
			ProvisionedHr: costmodel.ProvisionedThroughputCost(book, shards,
				float64(perf.WriteCapacityUnits), float64(perf.ReadCapacityUnits), 1),
		})
	}
	return rows, nil
}

// scatterGetTime loads scatterKeys items over n independent stores and
// returns the modeled time to batch-read them all back through the
// scatter-gather layer (per-shard reads run concurrently; the layer
// reports the slowest shard).
func scatterGetTime(n int) (time.Duration, error) {
	stores := make([]kv.Store, n)
	for i := range stores {
		stores[i] = dynamodb.New(meter.NewLedger())
	}
	sh := kv.NewShardedStores(stores)
	const table = "scatter"
	if err := sh.CreateTable(table); err != nil {
		return 0, err
	}
	keys := make([]string, scatterKeys)
	var items []kv.Item
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%04d", i)
		items = append(items, kv.Item{
			HashKey:  keys[i],
			RangeKey: "r",
			// 4 KB values make transfer time dominate the request RTT, so
			// the column shows capacity scaling rather than round trips.
			Attrs: []kv.Attr{{Name: "v", Values: []kv.Value{kv.Value(strings.Repeat("x", 4<<10))}}},
		})
	}
	lim := sh.Limits()
	for i := 0; i < len(items); i += lim.BatchPutItems {
		end := min(i+lim.BatchPutItems, len(items))
		if _, err := sh.BatchPut(table, items[i:end]); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	for i := 0; i < len(keys); i += lim.BatchGetKeys {
		end := min(i+lim.BatchGetKeys, len(keys))
		_, d, err := sh.BatchGet(context.Background(), table, keys[i:end])
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// ShardTable renders the shards-vs-throughput/cost table.
func ShardTable(rows []ShardRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding: partition-mode invariance and scatter-mode scaling (2LUPI)\n")
	fmt.Fprintf(&b, "%-7s %12s %12s %8s %12s | %12s %14s\n",
		"shards", "index", "workload", "calls", "req cost", "scatter get", "provisioned/h")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %12s %12s %8d %12s | %12s %14s\n",
			r.Shards, r.IndexTotal.Round(time.Millisecond), r.WorkloadTime.Round(time.Millisecond),
			r.Calls, usd(r.RequestCost), r.ScatterGet.Round(time.Millisecond), usd(r.ProvisionedHr))
	}
	b.WriteString("partition mode leaves the left columns unchanged at any shard count;\n")
	b.WriteString("scatter mode divides read latency by the fan-out and multiplies the\n")
	b.WriteString("provisioned-capacity bill by it.\n")
	return b.String()
}
