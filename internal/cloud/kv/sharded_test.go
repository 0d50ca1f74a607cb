package kv_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

func TestShardIndexDeterministicAndInRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		hit := make(map[int]bool)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("key-%03d", i)
			k := kv.ShardIndex(key, n)
			if k != kv.ShardIndex(key, n) {
				t.Fatalf("ShardIndex(%q, %d) not deterministic", key, n)
			}
			if k < 0 || k >= n {
				t.Fatalf("ShardIndex(%q, %d) = %d out of range", key, n, k)
			}
			hit[k] = true
		}
		if n > 1 && len(hit) < 2 {
			t.Errorf("ShardIndex with n=%d routed 200 keys to a single shard", n)
		}
	}
	if kv.ShardIndex("anything", 0) != 0 || kv.ShardIndex("anything", 1) != 0 {
		t.Error("ShardIndex must return 0 for n <= 1")
	}
}

func TestSplitShardTable(t *testing.T) {
	cases := []struct {
		physical string
		table    string
		shard    int
		ok       bool
	}{
		{kv.ShardTableName("term", 3), "term", 3, true},
		{"term@0", "term", 0, true},
		{"a@b@7", "a@b", 7, true},
		{"term", "term", 0, false},
		{"term@", "term@", 0, false},
		{"term@x", "term@x", 0, false},
		{"term@-1", "term@-1", 0, false},
	}
	for _, c := range cases {
		tbl, shard, ok := kv.SplitShardTable(c.physical)
		if tbl != c.table || shard != c.shard || ok != c.ok {
			t.Errorf("SplitShardTable(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.physical, tbl, shard, ok, c.table, c.shard, c.ok)
		}
	}
}

// loadBatch is a deterministic mixed-key batch that spreads over shards.
func loadBatch(n int) []kv.Item {
	items := make([]kv.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, item(
			fmt.Sprintf("key-%03d", i%7),
			fmt.Sprintf("r-%03d", i),
			attr("v", fmt.Sprintf("value-%04d", i)),
		))
	}
	return items
}

// TestShardedPartitionIdentity is the heart of the sharding layer: a
// sharded store over a MultiStore base must produce the same modeled
// latencies, the same metered calls/units/bytes, the same read results and
// the same merged dumps as the unsharded store, for every shard count.
func TestShardedPartitionIdentity(t *testing.T) {
	items := loadBatch(20)
	keys := []string{"key-000", "key-001", "key-002", "key-003", "key-004", "key-005", "key-006", "missing"}

	plainLedger := meter.NewLedger()
	plain := dynamodb.New(plainLedger)
	if err := plain.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	putPlain, err := plain.BatchPut("idx", items)
	if err != nil {
		t.Fatal(err)
	}
	wantGet, getPlain, err := plain.BatchGet(context.Background(), "idx", keys)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ledger := meter.NewLedger()
			sh := kv.NewSharded(dynamodb.New(ledger), shards)
			if err := sh.CreateTable("idx"); err != nil {
				t.Fatal(err)
			}
			putD, err := sh.BatchPut("idx", items)
			if err != nil {
				t.Fatal(err)
			}
			if putD != putPlain {
				t.Errorf("BatchPut latency = %v, unsharded %v", putD, putPlain)
			}
			got, getD, err := sh.BatchGet(context.Background(), "idx", keys)
			if err != nil {
				t.Fatal(err)
			}
			if getD != getPlain {
				t.Errorf("BatchGet latency = %v, unsharded %v", getD, getPlain)
			}
			if !reflect.DeepEqual(got, wantGet) {
				t.Errorf("BatchGet results differ from unsharded store")
			}
			for _, op := range []string{"put", "get"} {
				a, b := plainLedger.Snapshot().Get("dynamodb", op), ledger.Snapshot().Get("dynamodb", op)
				if a != b {
					t.Errorf("metered %s: sharded %+v, unsharded %+v", op, b, a)
				}
			}
			if !reflect.DeepEqual(sh.DumpTable("idx"), plain.DumpTable("idx")) {
				t.Errorf("merged dump differs from unsharded dump")
			}
			if sh.ItemCount("idx") != plain.ItemCount("idx") {
				t.Errorf("ItemCount = %d, want %d", sh.ItemCount("idx"), plain.ItemCount("idx"))
			}
			if sh.TableBytes("idx") != plain.TableBytes("idx") {
				t.Errorf("TableBytes = %d, want %d", sh.TableBytes("idx"), plain.TableBytes("idx"))
			}
			if got := sh.Tables(); len(got) != 1 || got[0] != "idx" {
				t.Errorf("Tables() = %v, want [idx]", got)
			}
		})
	}
}

// TestShardedSingleOpsRoute checks Put/Get/DeleteItem route consistently:
// what one path writes the others see, and the physical partition holding a
// key is the one ShardOf names.
func TestShardedSingleOpsRoute(t *testing.T) {
	base := dynamodb.New(meter.NewLedger())
	sh := kv.NewSharded(base, 4)
	if err := sh.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	it := item("hot-key", "r1", attr("v", "x"))
	if _, err := sh.Put("idx", it); err != nil {
		t.Fatal(err)
	}
	got, _, err := sh.Get(context.Background(), "idx", "hot-key")
	if err != nil || len(got) != 1 || got[0].RangeKey != "r1" {
		t.Fatalf("Get after Put = %v, %v", got, err)
	}
	k := sh.ShardOf("hot-key")
	phys := kv.ShardTableName("idx", k)
	if base.ItemCount(phys) != 1 {
		t.Errorf("item not on partition %s named by ShardOf", phys)
	}
	for other := 0; other < 4; other++ {
		if other != k && base.ItemCount(kv.ShardTableName("idx", other)) != 0 {
			t.Errorf("item leaked to partition %d", other)
		}
	}
	if _, err := sh.DeleteItem("idx", "hot-key", "r1"); err != nil {
		t.Fatal(err)
	}
	if sh.ItemCount("idx") != 0 {
		t.Errorf("delete through the sharded store left %d items", sh.ItemCount("idx"))
	}
}

// TestShardedFallbackWithoutMultiStore covers the stacking used under
// chaos: when the direct base does not implement MultiStore (a Retry
// wrapper here), the sharded store must fall back to per-shard batches and
// still converge to the same contents.
func TestShardedFallbackWithoutMultiStore(t *testing.T) {
	items := loadBatch(20)

	plain := dynamodb.New(meter.NewLedger())
	if err := plain.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.BatchPut("idx", items); err != nil {
		t.Fatal(err)
	}

	retry := kv.NewRetry(dynamodb.New(meter.NewLedger()))
	sh := kv.NewSharded(retry, 4)
	if err := sh.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.BatchPut("idx", items); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh.DumpTable("idx"), plain.DumpTable("idx")) {
		t.Errorf("fallback dump differs from unsharded dump")
	}
	keys := []string{"key-000", "key-003", "key-006"}
	want, _, err := plain.BatchGet(context.Background(), "idx", keys)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sh.BatchGet(context.Background(), "idx", keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallback BatchGet differs from unsharded store")
	}
	if kv.AsDumper(sh) == nil {
		t.Error("AsDumper should unwrap through Sharded over Retry")
	}
}

// TestShardedBatchLimits: the multi-table request applies the
// provider's batch ceiling to the whole logical batch, exactly like the
// unsharded store, so sharding cannot smuggle oversized batches through.
func TestShardedBatchLimits(t *testing.T) {
	sh := kv.NewSharded(dynamodb.New(meter.NewLedger()), 4)
	if err := sh.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	lim := sh.Limits()
	over := loadBatch(lim.BatchPutItems + 1)
	if _, err := sh.BatchPut("idx", over); err == nil {
		t.Errorf("BatchPut of %d items should exceed the %d-item limit", len(over), lim.BatchPutItems)
	}
	keys := make([]string, lim.BatchGetKeys+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	if _, _, err := sh.BatchGet(context.Background(), "idx", keys); err == nil {
		t.Errorf("BatchGet of %d keys should exceed the %d-key limit", len(keys), lim.BatchGetKeys)
	}
}

// TestShardedSinkCounters: per-shard traffic counters stream to the sink
// and account for every item and key exactly once.
func TestShardedSinkCounters(t *testing.T) {
	sink := make(countingSink)
	sh := kv.NewSharded(dynamodb.New(meter.NewLedger()), 4)
	sh.Sink = sink
	if err := sh.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	items := loadBatch(20)
	if _, err := sh.BatchPut("idx", items); err != nil {
		t.Fatal(err)
	}
	keys := []string{"key-000", "key-001", "key-002"}
	if _, _, err := sh.BatchGet(context.Background(), "idx", keys); err != nil {
		t.Fatal(err)
	}
	var puts, gets int64
	for k := 0; k < 4; k++ {
		puts += sink[kv.ShardPutMetric(k)]
		gets += sink[kv.ShardGetMetric(k)]
	}
	if puts != int64(len(items)) {
		t.Errorf("sink put items = %d, want %d", puts, len(items))
	}
	if gets != int64(len(keys)) {
		t.Errorf("sink get keys = %d, want %d", gets, len(keys))
	}
}

type countingSink map[string]int64

func (s countingSink) Add(name string, delta int64) { s[name] += delta }
