package kv

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/resilience"
)

// This file implements the hash-partitioned sharding layer. DynamoDB
// provisions throughput per table, so a single logical table caps the write
// rate no matter how many EC2 instances index against it (the saturation of
// Section 8.2). Sharded splits every logical table into N partitions behind
// the plain Store interface: each item routes to the partition selected by a
// deterministic hash of its hash key, so extraction, bulk loading, look-ups,
// deletes and cache invalidation all work unchanged.
//
// Two constructions cover the two questions the experiments ask:
//
//   - NewSharded (partition mode) splits tables on ONE backing store, the
//     way a single DynamoDB account shards a hot table. Batches are grouped
//     per shard and shipped as one multi-table request (MultiStore), which is
//     exactly what the real BatchWriteItem/BatchGetItem allow — so results,
//     modeled times and billed cost are byte-identical to the unsharded
//     store at any shard count. The differential tests assert this.
//
//   - NewShardedStores (scatter mode) spreads tables over N independent
//     stores, each with its own provisioned capacity, and fans requests out
//     concurrently (scatter-gather: per-shard durations combine as their
//     maximum). This is the construction whose modeled throughput actually
//     scales with N — bench's shard experiment prices it against the
//     per-shard provisioned-throughput cost.

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
// single request, which is what lets the partition-mode Sharded keep billed
// cost and modeled time identical to the unsharded store. The total element
// count across groups is bounded by the store's single-batch limits.
type MultiStore interface {
	// BatchPutMulti applies every group in one request.
	BatchPutMulti(groups []TableItems) (time.Duration, error)
	// BatchGetMulti serves every group in one request; result i corresponds
	// to groups[i].
	BatchGetMulti(ctx context.Context, groups []TableKeys) ([]map[string][]Item, time.Duration, error)
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
// surface the scatter fan-out (the lookup.scatter span) without depending on
// the concrete type.
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

// HedgeStatsSource is implemented by stores that hedge straggling reads;
// look-up code uses it to annotate spans with the hedges fired while
// serving a read, without depending on the concrete type.
type HedgeStatsSource interface {
	HedgeStats() resilience.HedgeStats
}

// AsHedgeStatsSource unwraps the store stack until it finds a
// HedgeStatsSource, or returns nil.
func AsHedgeStatsSource(s Store) HedgeStatsSource {
	for s != nil {
		if h, ok := s.(HedgeStatsSource); ok {
			return h
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

// ShardErrorMetric names the per-shard failure counter: scatter-mode calls
// count EVERY failing shard here, even though only the lowest-indexed
// shard's error surfaces to the caller (the deterministic combining rule),
// so the other shards' failures stay visible in obs.
func ShardErrorMetric(shard int) string {
	return "kv.shard." + strconv.Itoa(shard) + ".errors"
}

// Sharded partitions every logical table across N shards behind the Store
// interface. See the file comment for the two construction modes. It is
// safe for concurrent use if its backing store(s) are.
type Sharded struct {
	base   Store   // partition mode: single backing store, tables renamed
	stores []Store // scatter mode: one independent store per shard
	n      int

	// Sink, when non-nil, receives the per-shard traffic counters
	// (ShardPutMetric / ShardGetMetric / ShardErrorMetric). Set before the
	// store is shared.
	Sink CounterSink

	// Hedger, when non-nil, hedges scatter-mode reads: a shard whose
	// primary modeled latency exceeds the hedger's quantile delay re-issues
	// the read and the modeled first response wins. Only meaningful in
	// scatter mode (partition-mode "shards" share one store, so a hedge
	// could never be faster). Set before the store is shared.
	Hedger *resilience.Hedger

	// Breakers, when non-nil, guards scatter-mode reads per shard: an open
	// breaker sheds its shard's slice of the fan-out and the call returns a
	// partial result with a DegradedError instead of failing. Set before
	// the store is shared.
	Breakers *resilience.BreakerSet

	// Metric names resolved once at construction, so the data path does no
	// formatting.
	putMetrics []string
	getMetrics []string
	errMetrics []string
}

var (
	_ Store       = (*Sharded)(nil)
	_ ShardRouter = (*Sharded)(nil)
	_ Dumper      = (*Sharded)(nil)
)

// NewSharded returns a partition-mode sharding layer over base: logical
// table T becomes physical partitions T@0..T@n-1 on the same store, and
// batches ship as single multi-table requests when base implements
// MultiStore (falling back to one request per shard otherwise). n < 2
// still returns a working single-shard wrapper.
func NewSharded(base Store, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	return newSharded(base, nil, n)
}

// NewShardedStores returns a scatter-mode sharding layer: shard k of every
// table lives on stores[k], requests fan out concurrently, and per-shard
// durations combine as their maximum (the scatter-gather model). All stores
// must share one backend and one set of limits.
func NewShardedStores(stores []Store) *Sharded {
	if len(stores) == 0 {
		panic("kv: NewShardedStores needs at least one store")
	}
	return newSharded(nil, stores, len(stores))
}

func newSharded(base Store, stores []Store, n int) *Sharded {
	s := &Sharded{base: base, stores: stores, n: n,
		putMetrics: make([]string, n), getMetrics: make([]string, n),
		errMetrics: make([]string, n)}
	for k := 0; k < n; k++ {
		s.putMetrics[k] = ShardPutMetric(k)
		s.getMetrics[k] = ShardGetMetric(k)
		s.errMetrics[k] = ShardErrorMetric(k)
	}
	return s
}

// ShardCount implements ShardRouter.
func (s *Sharded) ShardCount() int { return s.n }

// HedgeStats implements HedgeStatsSource: a snapshot of the hedging
// counters, zero when no Hedger is configured.
func (s *Sharded) HedgeStats() resilience.HedgeStats { return s.Hedger.Stats() }

// ShardOf implements ShardRouter.
func (s *Sharded) ShardOf(hashKey string) int { return ShardIndex(hashKey, s.n) }

// scatter reports whether the layer runs in scatter mode.
func (s *Sharded) scatter() bool { return s.base == nil }

// shardStore returns the store serving shard k.
func (s *Sharded) shardStore(k int) Store {
	if s.scatter() {
		return s.stores[k]
	}
	return s.base
}

// shardTable returns the physical table name of shard k.
func (s *Sharded) shardTable(table string, k int) string {
	if s.scatter() {
		return table
	}
	return ShardTableName(table, k)
}

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

func (s *Sharded) noteErr(k int) {
	if s.Sink != nil {
		s.Sink.Add(s.errMetrics[k], 1)
	}
}

// Backend implements Store.
func (s *Sharded) Backend() string { return s.shardStore(0).Backend() }

// Limits implements Store.
func (s *Sharded) Limits() Limits { return s.shardStore(0).Limits() }

// CreateTable implements Store: every shard's partition is created.
func (s *Sharded) CreateTable(name string) error {
	for k := 0; k < s.n; k++ {
		if err := s.shardStore(k).CreateTable(s.shardTable(name, k)); err != nil {
			return err
		}
	}
	return nil
}

// DeleteTable implements Store.
func (s *Sharded) DeleteTable(name string) error {
	for k := 0; k < s.n; k++ {
		if err := s.shardStore(k).DeleteTable(s.shardTable(name, k)); err != nil {
			return err
		}
	}
	return nil
}

// Tables implements Store, returning logical table names.
func (s *Sharded) Tables() []string {
	seen := make(map[string]bool)
	var out []string
	note := func(name string) {
		logical, _, _ := SplitShardTable(name)
		if !seen[logical] {
			seen[logical] = true
			out = append(out, logical)
		}
	}
	if s.scatter() {
		for _, name := range s.stores[0].Tables() {
			note(name)
		}
	} else {
		for _, name := range s.base.Tables() {
			note(name)
		}
	}
	sort.Strings(out)
	return out
}

// Put implements Store: the item routes to its shard.
func (s *Sharded) Put(table string, item Item) (time.Duration, error) {
	k := s.ShardOf(item.HashKey)
	s.notePut(k, 1)
	return s.shardStore(k).Put(s.shardTable(table, k), item)
}

// Get implements Store. In scatter mode the resilience hooks engage: an open
// breaker sheds the read (DegradedError) and a straggling primary is hedged,
// keeping the modeled first response.
func (s *Sharded) Get(ctx context.Context, table, hashKey string) ([]Item, time.Duration, error) {
	k := s.ShardOf(hashKey)
	s.noteGet(k, 1)
	st, tbl := s.shardStore(k), s.shardTable(table, k)
	if !s.scatter() {
		return st.Get(ctx, tbl, hashKey)
	}
	if s.Breakers != nil && !s.Breakers.Allow(k) {
		return nil, 0, sortDegraded(&DegradedError{Shards: []int{k}, Keys: []string{hashKey}})
	}
	var delay time.Duration
	hedge := false
	if s.Hedger != nil {
		delay, hedge = s.Hedger.Delay()
	}
	items, d, err := st.Get(ctx, tbl, hashKey)
	if err != nil {
		s.Breakers.Failure(k)
		s.noteErr(k)
		return nil, d, err
	}
	s.Breakers.Success(k)
	s.Hedger.Observe(k, d)
	if hedge && d > delay {
		s.Hedger.NoteFired()
		items2, d2, err2 := st.Get(ctx, tbl, hashKey)
		if err2 == nil && delay+d2 < d {
			s.Hedger.NoteWon()
			items, d = items2, delay+d2
		} else {
			s.Hedger.NoteWasted()
		}
	}
	return items, d, nil
}

// DeleteItem implements Store.
func (s *Sharded) DeleteItem(table, hashKey, rangeKey string) (time.Duration, error) {
	k := s.ShardOf(hashKey)
	s.notePut(k, 1)
	return s.shardStore(k).DeleteItem(s.shardTable(table, k), hashKey, rangeKey)
}

// groupItems splits a batch by shard, preserving input order within each
// group. Group order follows ascending shard index, so request issue order
// is deterministic.
func (s *Sharded) groupItems(items []Item) [][]Item {
	groups := make([][]Item, s.n)
	for _, it := range items {
		k := s.ShardOf(it.HashKey)
		groups[k] = append(groups[k], it)
	}
	return groups
}

// BatchPut implements Store: the batch is grouped per shard. Partition mode
// ships all groups as one multi-table request when the backing store allows
// it — the same packing, latency and metered units as the unsharded batch —
// and issues per-shard requests sequentially otherwise. Scatter mode fans
// the groups out concurrently and charges the slowest shard's latency.
func (s *Sharded) BatchPut(table string, items []Item) (time.Duration, error) {
	groups := s.groupItems(items)
	for k, g := range groups {
		if len(g) > 0 {
			s.notePut(k, len(g))
		}
	}
	if !s.scatter() {
		if ms, ok := s.base.(MultiStore); ok {
			var multi []TableItems
			for k, g := range groups {
				if len(g) > 0 {
					multi = append(multi, TableItems{Table: s.shardTable(table, k), Items: g})
				}
			}
			return ms.BatchPutMulti(multi)
		}
		var total time.Duration
		for k, g := range groups {
			if len(g) == 0 {
				continue
			}
			d, err := s.base.BatchPut(s.shardTable(table, k), g)
			total += d
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	ops := make([]func() (time.Duration, error), s.n)
	for k := 0; k < s.n; k++ {
		if len(groups[k]) == 0 {
			continue
		}
		k := k
		ops[k] = func() (time.Duration, error) {
			return s.stores[k].BatchPut(table, groups[k])
		}
	}
	d, _, err := s.scatterRun(false, ops)
	return d, err
}

// BatchGet implements Store: keys are grouped per shard and the per-shard
// streams are merged back into one result map (each hash key lives on
// exactly one shard, so the merge is disjoint). The request structure
// mirrors BatchPut's three cases. In scatter mode the fan-out runs under the
// resilience hooks (hedging, breakers); shed shards degrade the call to a
// partial result map returned WITH a *DegradedError listing the missing
// keys, so callers can serve what arrived and mark the answer incomplete.
func (s *Sharded) BatchGet(ctx context.Context, table string, hashKeys []string) (map[string][]Item, time.Duration, error) {
	groups := make([][]string, s.n)
	for _, key := range hashKeys {
		k := s.ShardOf(key)
		groups[k] = append(groups[k], key)
	}
	for k, g := range groups {
		if len(g) > 0 {
			s.noteGet(k, len(g))
		}
	}
	out := make(map[string][]Item, len(hashKeys))
	if !s.scatter() {
		if ms, ok := s.base.(MultiStore); ok {
			var multi []TableKeys
			for k, g := range groups {
				if len(g) > 0 {
					multi = append(multi, TableKeys{Table: s.shardTable(table, k), Keys: g})
				}
			}
			results, d, err := ms.BatchGetMulti(ctx, multi)
			if err != nil {
				return nil, d, err
			}
			for _, m := range results {
				for key, its := range m {
					out[key] = its
				}
			}
			return out, d, nil
		}
		var total time.Duration
		for k, g := range groups {
			if len(g) == 0 {
				continue
			}
			m, d, err := s.base.BatchGet(ctx, s.shardTable(table, k), g)
			total += d
			if err != nil {
				return nil, total, err
			}
			for key, its := range m {
				out[key] = its
			}
		}
		return out, total, nil
	}
	var mu sync.Mutex
	ops := make([]func() (time.Duration, error), s.n)
	for k := 0; k < s.n; k++ {
		if len(groups[k]) == 0 {
			continue
		}
		k := k
		ops[k] = func() (time.Duration, error) {
			m, d, err := s.stores[k].BatchGet(ctx, table, groups[k])
			if err != nil {
				return d, err
			}
			mu.Lock()
			for key, its := range m {
				out[key] = its
			}
			mu.Unlock()
			return d, nil
		}
	}
	d, shed, err := s.scatterRun(true, ops)
	if err != nil {
		return nil, d, err
	}
	if len(shed) > 0 {
		de := &DegradedError{Shards: shed}
		for _, k := range shed {
			de.Keys = append(de.Keys, groups[k]...)
		}
		return out, d, sortDegraded(de)
	}
	return out, d, nil
}

// scatterRun fans the per-shard ops out concurrently (nil entries are
// shards with no work) and combines: duration is the maximum over shards
// (the scatter-gather wall clock), the returned error is the lowest-indexed
// shard's failure so reruns report deterministically — but EVERY failing
// shard counts on its kv.shard.K.errors counter, keeping the other shards'
// failures visible in obs.
//
// For read fan-outs (read=true) the resilience hooks engage:
//
//   - Breakers: a shard whose breaker is open is shed — its op never runs,
//     it contributes zero duration, and its index lands in the shed list so
//     the caller can degrade to a partial result.
//   - Hedger: the hedge delay is computed ONCE before the fan-out (so every
//     shard of a call sees the same threshold, a deterministic sequential
//     point). A shard whose primary modeled latency d1 exceeds the delay
//     re-issues its op — reads are idempotent, and re-merging the same keys
//     is a no-op — and the call keeps the modeled first response:
//     min(d1, delay+d2), the loser being "cancelled". Both requests really
//     hit the store and are billed; the fired/won/wasted counters account
//     the overhead, and hedge durations are never fed back into the
//     hedger's latency window.
func (s *Sharded) scatterRun(read bool, ops []func() (time.Duration, error)) (time.Duration, []int, error) {
	durations := make([]time.Duration, s.n)
	errs := make([]error, s.n)
	shedv := make([]bool, s.n)
	var delay time.Duration
	hedge := false
	if read && s.Hedger != nil {
		delay, hedge = s.Hedger.Delay()
	}
	var wg sync.WaitGroup
	for k := 0; k < s.n; k++ {
		if ops[k] == nil {
			continue
		}
		if read && s.Breakers != nil && !s.Breakers.Allow(k) {
			shedv[k] = true
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			d, err := ops[k]()
			if read {
				if err != nil {
					s.Breakers.Failure(k)
				} else {
					s.Breakers.Success(k)
					s.Hedger.Observe(k, d)
					if hedge && d > delay {
						s.Hedger.NoteFired()
						d2, err2 := ops[k]() // hedge: re-issue the idempotent read
						if err2 == nil && delay+d2 < d {
							s.Hedger.NoteWon()
							d = delay + d2 // first response wins
						} else {
							s.Hedger.NoteWasted() // extra bill, no latency won
						}
					}
				}
			}
			durations[k], errs[k] = d, err
		}(k)
	}
	wg.Wait()
	var max time.Duration
	for _, d := range durations {
		if d > max {
			max = d
		}
	}
	var shed []int
	for k, v := range shedv {
		if v {
			shed = append(shed, k)
		}
	}
	var first error
	for k, err := range errs {
		if err != nil {
			s.noteErr(k)
			if first == nil {
				first = err
			}
		}
	}
	return max, shed, first
}

// TableBytes implements Store, summing over shards.
func (s *Sharded) TableBytes(table string) int64 {
	var n int64
	for k := 0; k < s.n; k++ {
		n += s.shardStore(k).TableBytes(s.shardTable(table, k))
	}
	return n
}

// OverheadBytes implements Store, summing over shards.
func (s *Sharded) OverheadBytes(table string) int64 {
	var n int64
	for k := 0; k < s.n; k++ {
		n += s.shardStore(k).OverheadBytes(s.shardTable(table, k))
	}
	return n
}

// TotalBytes implements Store.
func (s *Sharded) TotalBytes() int64 {
	if s.scatter() {
		var n int64
		for _, st := range s.stores {
			n += st.TotalBytes()
		}
		return n
	}
	return s.base.TotalBytes()
}

// ItemCount implements Store, summing over shards.
func (s *Sharded) ItemCount(table string) int64 {
	var n int64
	for k := 0; k < s.n; k++ {
		n += s.shardStore(k).ItemCount(s.shardTable(table, k))
	}
	return n
}

// RegisterClient implements Store. Scatter mode registers on every shard
// store: a worker thread drives all shards, so each one's provisioned
// capacity is shared among the same client population.
func (s *Sharded) RegisterClient() {
	if s.scatter() {
		for _, st := range s.stores {
			st.RegisterClient()
		}
		return
	}
	s.base.RegisterClient()
}

// UnregisterClient implements Store.
func (s *Sharded) UnregisterClient() {
	if s.scatter() {
		for _, st := range s.stores {
			st.UnregisterClient()
		}
		return
	}
	s.base.UnregisterClient()
}

// DumpTable merges the logical table's shard partitions into one
// deterministic dump sorted by (hash key, range key) — the exact order
// MemStore.DumpTable uses, so a sharded store's dump is comparable
// byte-for-byte against an unsharded one.
func (s *Sharded) DumpTable(table string) []Item {
	var out []Item
	for k := 0; k < s.n; k++ {
		d := AsDumper(s.shardStore(k))
		if d == nil {
			return nil
		}
		out = append(out, d.DumpTable(s.shardTable(table, k))...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HashKey != out[j].HashKey {
			return out[i].HashKey < out[j].HashKey
		}
		return out[i].RangeKey < out[j].RangeKey
	})
	return out
}

// RetryStats implements RetryStatsSource by summing the counters of every
// backing store that exposes them, so look-up statistics keep attributing
// store retries when a Retry sits below the sharding layer.
func (s *Sharded) RetryStats() RetryStats {
	var sum RetryStats
	add := func(st Store) {
		if src, ok := st.(RetryStatsSource); ok {
			rs := src.RetryStats()
			sum.Retries += rs.Retries
			sum.Throttles += rs.Throttles
			sum.Internal += rs.Internal
			sum.PartialBatches += rs.PartialBatches
			sum.ItemsResubmitted += rs.ItemsResubmitted
			sum.KeysRefetched += rs.KeysRefetched
			sum.GaveUp += rs.GaveUp
		}
	}
	if s.scatter() {
		for _, st := range s.stores {
			add(st)
		}
	} else {
		add(s.base)
	}
	return sum
}

// String aids debugging.
func (s *Sharded) String() string {
	mode := "partition"
	if s.scatter() {
		mode = "scatter"
	}
	return fmt.Sprintf("kv.Sharded{%s, %d shards, %s}", mode, s.n, s.Backend())
}
