package kv

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file implements the hash-partitioned sharding layer. DynamoDB
// provisions throughput per table, so a single logical table caps the write
// rate no matter how many EC2 instances index against it (the saturation of
// Section 8.2). Sharded splits every logical table into N partitions behind
// the plain Store interface: each item routes to the partition selected by a
// deterministic hash of its hash key, so extraction, bulk loading, look-ups,
// deletes and cache invalidation all work unchanged.
//
// The partitions live on ONE backing store, the way a single DynamoDB
// account shards a hot table: logical table T becomes physical tables
// T@0..T@N-1. Batches are grouped per shard and shipped as one multi-table
// request (MultiStore), which is exactly what the real
// BatchWriteItem/BatchGetItem allow — so results, modeled times and billed
// cost are byte-identical to the unsharded store at any shard count. The
// differential tests assert this. Over a store that is not a MultiStore
// (Retry, and so the chaos stack) the groups go out as one request per shard,
// in ascending shard order.

// ShardIndex routes a hash key to one of n shards: FNV-1a over the key,
// reduced mod n. It is the single routing function of the system — the
// posting cache and the chaos layer's per-shard fault plans use it too, so
// every component agrees on where a key lives.
func ShardIndex(hashKey string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(hashKey); i++ {
		h ^= uint32(hashKey[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// ShardTableName returns the physical name of a logical table's k-th
// partition.
func ShardTableName(table string, shard int) string {
	return table + "@" + strconv.Itoa(shard)
}

// SplitShardTable parses a physical partition name back into its logical
// table and shard index; ok is false for unsharded names.
func SplitShardTable(physical string) (table string, shard int, ok bool) {
	i := strings.LastIndexByte(physical, '@')
	if i < 0 {
		return physical, 0, false
	}
	n, err := strconv.Atoi(physical[i+1:])
	if err != nil || n < 0 {
		return physical, 0, false
	}
	return physical[:i], n, true
}

// TableItems is one table's slice of a multi-table batch write.
type TableItems struct {
	Table string
	Items []Item
}

// TableKeys is one table's slice of a multi-table batch read.
type TableKeys struct {
	Table string
	Keys  []string
}

// MultiStore is the optional multi-table batch interface. Real DynamoDB's
// BatchWriteItem and BatchGetItem span tables within one request; a store
// implementing MultiStore meters and latency-models the whole group as a
// single request, which is what lets Sharded keep billed cost and modeled
// time identical to the unsharded store. The total element count across
// groups is bounded by the store's single-batch limits.
type MultiStore interface {
	// BatchPutMulti applies every group in one request.
	BatchPutMulti(groups []TableItems) (time.Duration, error)
	// ReadMulti serves every group in one request: Store.Read over several
	// tables.
	ReadMulti(ctx context.Context, groups []TableKeys, visit Visitor) (time.Duration, error)
}

// Dumper is the verification-side interface of stores that can enumerate a
// table deterministically (MemStore.DumpTable); differential tests reach it
// through AsDumper.
type Dumper interface {
	DumpTable(table string) []Item
}

// Unwrapper is implemented by store wrappers (Retry, the chaos store) so
// capability probes can walk the stack.
type Unwrapper interface {
	Unwrap() Store
}

// AsDumper unwraps the store stack until it finds a Dumper, or returns nil.
func AsDumper(s Store) Dumper {
	for s != nil {
		if d, ok := s.(Dumper); ok {
			return d
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// ShardRouter is implemented by sharding stores; look-up code uses it to
// surface a read's spread over shards (the lookup.scatter span) without
// depending on the concrete type.
type ShardRouter interface {
	// ShardCount returns the number of shards (1 for unsharded stores).
	ShardCount() int
	// ShardOf returns the shard a hash key routes to.
	ShardOf(hashKey string) int
}

// AsShardRouter unwraps the store stack until it finds a ShardRouter, or
// returns nil.
func AsShardRouter(s Store) ShardRouter {
	for s != nil {
		if r, ok := s.(ShardRouter); ok {
			return r
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// ShardPutMetric and ShardGetMetric name the per-shard counters a Sharded
// streams to its Sink: items written to and keys read from shard k.
func ShardPutMetric(shard int) string {
	return "kv.shard." + strconv.Itoa(shard) + ".put_items"
}

// ShardGetMetric is the read-side counterpart of ShardPutMetric.
func ShardGetMetric(shard int) string {
	return "kv.shard." + strconv.Itoa(shard) + ".get_keys"
}

// Sharded partitions every logical table across N shards of one backing
// store behind the Store interface (see the file comment). It is safe for
// concurrent use if its backing store is.
type Sharded struct {
	base Store
	n    int

	// Sink, when non-nil, receives the per-shard traffic counters
	// (ShardPutMetric / ShardGetMetric). Set before the store is shared.
	Sink CounterSink

	// Metric names resolved once at construction, so the data path does no
	// formatting.
	putMetrics []string
	getMetrics []string
}

var (
	_ Store       = (*Sharded)(nil)
	_ ShardRouter = (*Sharded)(nil)
	_ Dumper      = (*Sharded)(nil)
)

// NewSharded returns a sharding layer over base: logical table T becomes
// physical partitions T@0..T@n-1 on the same store, and batches ship as
// single multi-table requests when base implements MultiStore (falling back
// to one request per shard otherwise). n < 2 still returns a working
// single-shard wrapper.
func NewSharded(base Store, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{base: base, n: n,
		putMetrics: make([]string, n), getMetrics: make([]string, n)}
	for k := 0; k < n; k++ {
		s.putMetrics[k] = ShardPutMetric(k)
		s.getMetrics[k] = ShardGetMetric(k)
	}
	return s
}

// ShardCount implements ShardRouter.
func (s *Sharded) ShardCount() int { return s.n }

// ShardOf implements ShardRouter.
func (s *Sharded) ShardOf(hashKey string) int { return ShardIndex(hashKey, s.n) }

func (s *Sharded) notePut(k int, items int) {
	if s.Sink != nil {
		s.Sink.Add(s.putMetrics[k], int64(items))
	}
}

func (s *Sharded) noteGet(k int, keys int) {
	if s.Sink != nil {
		s.Sink.Add(s.getMetrics[k], int64(keys))
	}
}

// Backend implements Store.
func (s *Sharded) Backend() string { return s.base.Backend() }

// Limits implements Store.
func (s *Sharded) Limits() Limits { return s.base.Limits() }

// CreateTable implements Store: every shard's partition is created.
func (s *Sharded) CreateTable(name string) error {
	for k := 0; k < s.n; k++ {
		if err := s.base.CreateTable(ShardTableName(name, k)); err != nil {
			return err
		}
	}
	return nil
}

// DeleteTable implements Store.
func (s *Sharded) DeleteTable(name string) error {
	for k := 0; k < s.n; k++ {
		if err := s.base.DeleteTable(ShardTableName(name, k)); err != nil {
			return err
		}
	}
	return nil
}

// Tables implements Store, returning logical table names.
func (s *Sharded) Tables() []string {
	seen := make(map[string]bool)
	var out []string
	for _, name := range s.base.Tables() {
		logical, _, _ := SplitShardTable(name)
		if !seen[logical] {
			seen[logical] = true
			out = append(out, logical)
		}
	}
	sort.Strings(out)
	return out
}

// Put implements Store: the item routes to its shard.
func (s *Sharded) Put(table string, item Item) (time.Duration, error) {
	k := s.ShardOf(item.HashKey)
	s.notePut(k, 1)
	return s.base.Put(ShardTableName(table, k), item)
}

// DeleteItem implements Store.
func (s *Sharded) DeleteItem(table, hashKey, rangeKey string) (time.Duration, error) {
	k := s.ShardOf(hashKey)
	s.notePut(k, 1)
	return s.base.DeleteItem(ShardTableName(table, k), hashKey, rangeKey)
}

// BatchPut implements Store: the batch is grouped per shard, preserving
// input order within each group, and the groups go out in ascending shard
// order, so request issue order is deterministic. All groups ship as one
// multi-table request when the backing store allows it — the same packing,
// latency and metered units as the unsharded batch — and as one request per
// shard, sequentially, otherwise.
func (s *Sharded) BatchPut(table string, items []Item) (time.Duration, error) {
	groups := make([][]Item, s.n)
	for _, it := range items {
		k := s.ShardOf(it.HashKey)
		groups[k] = append(groups[k], it)
	}
	var multi []TableItems
	for k, g := range groups {
		if len(g) > 0 {
			s.notePut(k, len(g))
			multi = append(multi, TableItems{Table: ShardTableName(table, k), Items: g})
		}
	}
	if ms, ok := s.base.(MultiStore); ok {
		return ms.BatchPutMulti(multi)
	}
	var total time.Duration
	for _, g := range multi {
		d, err := s.base.BatchPut(g.Table, g.Items)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read implements Store: keys are grouped per shard and the visitor sees
// each key once, shard by shard (each hash key lives on exactly one shard).
// The request structure mirrors BatchPut's two cases.
func (s *Sharded) Read(ctx context.Context, table string, hashKeys []string, visit Visitor) (time.Duration, error) {
	groups := make([][]string, s.n)
	for _, key := range hashKeys {
		k := s.ShardOf(key)
		groups[k] = append(groups[k], key)
	}
	var multi []TableKeys
	for k, g := range groups {
		if len(g) > 0 {
			s.noteGet(k, len(g))
			multi = append(multi, TableKeys{Table: ShardTableName(table, k), Keys: g})
		}
	}
	if ms, ok := s.base.(MultiStore); ok {
		return ms.ReadMulti(ctx, multi, visit)
	}
	var total time.Duration
	for _, g := range multi {
		d, err := s.base.Read(ctx, g.Table, g.Keys, visit)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TableBytes implements Store, summing over shards.
func (s *Sharded) TableBytes(table string) int64 {
	var n int64
	for k := 0; k < s.n; k++ {
		n += s.base.TableBytes(ShardTableName(table, k))
	}
	return n
}

// OverheadBytes implements Store, summing over shards.
func (s *Sharded) OverheadBytes(table string) int64 {
	var n int64
	for k := 0; k < s.n; k++ {
		n += s.base.OverheadBytes(ShardTableName(table, k))
	}
	return n
}

// TotalBytes implements Store.
func (s *Sharded) TotalBytes() int64 { return s.base.TotalBytes() }

// ItemCount implements Store, summing over shards.
func (s *Sharded) ItemCount(table string) int64 {
	var n int64
	for k := 0; k < s.n; k++ {
		n += s.base.ItemCount(ShardTableName(table, k))
	}
	return n
}

// RegisterClient implements Store.
func (s *Sharded) RegisterClient() { s.base.RegisterClient() }

// UnregisterClient implements Store.
func (s *Sharded) UnregisterClient() { s.base.UnregisterClient() }

// DumpTable merges the logical table's shard partitions into one
// deterministic dump sorted by (hash key, range key) — the exact order
// MemStore.DumpTable uses, so a sharded store's dump is comparable
// byte-for-byte against an unsharded one.
func (s *Sharded) DumpTable(table string) []Item {
	d := AsDumper(s.base)
	if d == nil {
		return nil
	}
	var out []Item
	for k := 0; k < s.n; k++ {
		out = append(out, d.DumpTable(ShardTableName(table, k))...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HashKey != out[j].HashKey {
			return out[i].HashKey < out[j].HashKey
		}
		return out[i].RangeKey < out[j].RangeKey
	})
	return out
}

// RetryStats implements RetryStatsSource with the backing store's counters,
// so look-up statistics keep attributing store retries when a Retry sits
// below the sharding layer.
func (s *Sharded) RetryStats() RetryStats {
	if src, ok := s.base.(RetryStatsSource); ok {
		return src.RetryStats()
	}
	return RetryStats{}
}

// String aids debugging.
func (s *Sharded) String() string {
	return fmt.Sprintf("kv.Sharded{%d shards, %s}", s.n, s.Backend())
}
