package kv

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/meter"
)

// Perf parameterizes the latency model of a store.
//
// A request of payload p consumes ceil(p / unit bytes) capacity units (at
// least one). A single client thread can drive at most ClientWriteUnits
// (resp. ClientReadUnits) units per second; the store as a whole serves at
// most WriteCapacityUnits (resp. ReadCapacityUnits) units per second, shared
// evenly among registered clients. The modeled latency of a request is
//
//	RTT + units / min(clientRate, capacity/activeClients)
//
// which yields client-bound behaviour at low parallelism and provisioned-
// capacity-bound behaviour (saturation) at high parallelism, the effect the
// paper observes while indexing (Section 8.2) and in Figure 10.
type Perf struct {
	RTT                time.Duration
	WriteUnitBytes     int64
	ReadUnitBytes      int64
	WriteCapacityUnits float64
	ReadCapacityUnits  float64
	ClientWriteUnits   float64
	ClientReadUnits    float64
}

// Config assembles everything needed to build an in-memory store.
type Config struct {
	// Backend is the service name ("dynamodb", "simpledb").
	Backend string
	Limits  Limits
	Perf    Perf
	// PerItemOverhead and PerAttrValueOverhead model the auxiliary bytes
	// the service adds on top of user data (the ovh(D,I) of Section 7.1).
	PerItemOverhead      int64
	PerAttrValueOverhead int64
	// Ledger receives the metering records; required.
	Ledger *meter.Ledger
}

// MemStore is the in-memory Store implementation shared by the DynamoDB and
// SimpleDB simulators. It is safe for concurrent use. Its tables are laid
// out as arena.go describes; everything it reports about sizes, latencies
// and metering is the modeled service's, computed from the items' billed
// sizes.
type MemStore struct {
	cfg Config

	mu      sync.RWMutex
	tables  map[string]*table
	clients int
}

var (
	_ Store      = (*MemStore)(nil)
	_ MultiStore = (*MemStore)(nil)
	_ Dumper     = (*MemStore)(nil)
)

// NewMemStore builds a store from cfg. It panics if cfg.Ledger is nil,
// since an unmetered store would silently break the cost study.
func NewMemStore(cfg Config) *MemStore {
	if cfg.Ledger == nil {
		panic("kv: Config.Ledger is required")
	}
	if cfg.Backend == "" {
		panic("kv: Config.Backend is required")
	}
	return &MemStore{cfg: cfg, tables: make(map[string]*table)}
}

// Backend implements Store.
func (s *MemStore) Backend() string { return s.cfg.Backend }

// Limits implements Store.
func (s *MemStore) Limits() Limits { return s.cfg.Limits }

// CreateTable implements Store.
func (s *MemStore) CreateTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	s.tables[name] = newTable()
	return nil
}

// DeleteTable implements Store.
func (s *MemStore) DeleteTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	delete(s.tables, name)
	return nil
}

// Tables implements Store.
func (s *MemStore) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterClient implements Store.
func (s *MemStore) RegisterClient() {
	s.mu.Lock()
	s.clients++
	s.mu.Unlock()
}

// UnregisterClient implements Store.
func (s *MemStore) UnregisterClient() {
	s.mu.Lock()
	if s.clients > 0 {
		s.clients--
	}
	s.mu.Unlock()
}

// validate checks an item against the store's limits and returns its billed
// size.
func (s *MemStore) validate(item Item) (int64, error) {
	if item.HashKey == "" {
		return 0, ErrEmptyKey
	}
	lim := s.cfg.Limits
	size := item.Size()
	if lim.MaxItemBytes > 0 && size > lim.MaxItemBytes {
		return 0, fmt.Errorf("%w: %d bytes > %d", ErrItemTooLarge, size, lim.MaxItemBytes)
	}
	for _, a := range item.Attrs {
		for _, v := range a.Values {
			if lim.MaxValueBytes > 0 && int64(len(v)) > lim.MaxValueBytes {
				return 0, fmt.Errorf("%w: attribute %q value of %d bytes > %d",
					ErrValueTooLarge, a.Name, len(v), lim.MaxValueBytes)
			}
			if !lim.SupportsBinary && !utf8.Valid(v) {
				return 0, fmt.Errorf("%w: attribute %q", ErrNotText, a.Name)
			}
		}
	}
	return size, nil
}

// writeLatency computes the modeled duration of a write of the given payload.
// Must be called with s.mu held (read or write).
func (s *MemStore) writeLatency(bytes int64) time.Duration {
	return s.latency(bytes, s.cfg.Perf.WriteUnitBytes, s.cfg.Perf.ClientWriteUnits, s.cfg.Perf.WriteCapacityUnits)
}

func (s *MemStore) readLatency(bytes int64) time.Duration {
	return s.latency(bytes, s.cfg.Perf.ReadUnitBytes, s.cfg.Perf.ClientReadUnits, s.cfg.Perf.ReadCapacityUnits)
}

func (s *MemStore) latency(bytes, unitBytes int64, clientRate, capacity float64) time.Duration {
	if unitBytes <= 0 {
		unitBytes = 1024
	}
	units := float64((bytes + unitBytes - 1) / unitBytes)
	if units < 1 {
		units = 1
	}
	rate := clientRate
	if rate <= 0 {
		rate = math.Inf(1)
	}
	if capacity > 0 && s.clients > 0 {
		if share := capacity / float64(s.clients); share < rate {
			rate = share
		}
	}
	d := s.cfg.Perf.RTT
	if !math.IsInf(rate, 1) {
		d += time.Duration(units / rate * float64(time.Second))
	}
	return d
}

// Put implements Store.
func (s *MemStore) Put(tbl string, item Item) (time.Duration, error) {
	return s.BatchPutMulti([]TableItems{{Table: tbl, Items: []Item{item}}})
}

// BatchPut implements Store.
func (s *MemStore) BatchPut(tbl string, items []Item) (time.Duration, error) {
	return s.BatchPutMulti([]TableItems{{Table: tbl, Items: items}})
}

// BatchPutMulti implements MultiStore: every group lands in one request,
// the way DynamoDB's BatchWriteItem spans tables. The combined payload is
// metered and latency-modeled exactly like a single-table batch of the same
// items, so a sharding layer splitting one logical batch across partitions
// costs precisely what the unsharded batch would. The single-batch item
// limit applies to the total across groups. Nothing is stored unless every
// item is valid.
func (s *MemStore) BatchPutMulti(groups []TableItems) (time.Duration, error) {
	var total int
	for _, g := range groups {
		total += len(g.Items)
	}
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && total > lim {
		return 0, fmt.Errorf("%w: %d items > %d", ErrBatchTooLarge, total, lim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	for _, g := range groups {
		if _, ok := s.tables[g.Table]; !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, g.Table)
		}
		for _, it := range g.Items {
			size, err := s.validate(it)
			if err != nil {
				return 0, err
			}
			bytes += size
		}
	}
	for _, g := range groups {
		t := s.tables[g.Table]
		for _, it := range g.Items {
			t.put(it)
		}
		t.maybeRewrite()
	}
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(total), bytes)
	return s.writeLatency(bytes), nil
}

// Get implements Store. Like every read it stops, before anything is read
// or metered, on a cancelled context or a spent budget.
func (s *MemStore) Get(ctx context.Context, tbl, hashKey string) ([]Item, time.Duration, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	items, bytes, err := s.getLocked(tbl, hashKey)
	if err != nil {
		return nil, 0, err
	}
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, 1, bytes)
	return items, s.readLatency(bytes), nil
}

// BatchGet implements Store.
func (s *MemStore) BatchGet(ctx context.Context, tbl string, hashKeys []string) (map[string][]Item, time.Duration, error) {
	results, d, err := s.BatchGetMulti(ctx, []TableKeys{{Table: tbl, Keys: hashKeys}})
	if err != nil {
		return nil, 0, err
	}
	return results[0], d, nil
}

// BatchGetMulti implements MultiStore, the read-side counterpart of
// BatchPutMulti (DynamoDB's BatchGetItem spans tables too). Result i holds
// groups[i]'s items; the whole request is metered once with the combined
// key count and payload. The single-batch key limit applies to the total.
func (s *MemStore) BatchGetMulti(ctx context.Context, groups []TableKeys) ([]map[string][]Item, time.Duration, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, 0, err
	}
	var total int
	for _, g := range groups {
		total += len(g.Keys)
	}
	if lim := s.cfg.Limits.BatchGetKeys; lim > 0 && total > lim {
		return nil, 0, fmt.Errorf("%w: %d keys > %d", ErrBatchTooLarge, total, lim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	results := make([]map[string][]Item, len(groups))
	var bytes int64
	for i, g := range groups {
		out := make(map[string][]Item, len(g.Keys))
		for _, k := range g.Keys {
			items, b, err := s.getLocked(g.Table, k)
			if err != nil {
				return nil, 0, err
			}
			out[k] = items
			bytes += b
		}
		results[i] = out
	}
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, int64(total), bytes)
	return results, s.readLatency(bytes), nil
}

// getLocked returns read-only views of a hash key's items and their billed
// size.
func (s *MemStore) getLocked(tbl, hashKey string) ([]Item, int64, error) {
	if hashKey == "" {
		return nil, 0, ErrEmptyKey
	}
	t, ok := s.tables[tbl]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	g := t.groups[hashKey]
	if g == nil {
		return nil, 0, nil
	}
	return t.view(g, false), g.sum.bytes, nil
}

// DeleteItem implements Store. The write is metered like a put of the
// item's key size (DynamoDB bills deletes as writes).
func (s *MemStore) DeleteItem(tbl, hashKey, rangeKey string) (time.Duration, error) {
	if hashKey == "" {
		return 0, ErrEmptyKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	t.delete(hashKey, rangeKey)
	t.maybeRewrite()
	keyBytes := int64(len(hashKey) + len(rangeKey))
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, 1, keyBytes)
	return s.writeLatency(keyBytes), nil
}

// TableBytes implements Store.
func (s *MemStore) TableBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.sum.bytes
	}
	return 0
}

// overhead is the modeled service's auxiliary bytes for a table.
func (s *MemStore) overhead(t *table) int64 {
	return t.items*s.cfg.PerItemOverhead + t.sum.values*s.cfg.PerAttrValueOverhead
}

// OverheadBytes implements Store.
func (s *MemStore) OverheadBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return s.overhead(t)
	}
	return 0
}

// TotalBytes implements Store.
func (s *MemStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.sum.bytes + s.overhead(t)
	}
	return n
}

// ItemCount implements Store.
func (s *MemStore) ItemCount(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.items
	}
	return 0
}

// DumpTable returns every item of a table in deterministic order (hash
// key, then range key), as read-only views like a Get's. It is a
// verification/debugging helper outside the billed Store API; differential
// tests use it to compare whole-store contents across runs. It verifies
// every item's checksum on the way, so each of those tests also proves that
// no reader wrote through a view: it panics if one did.
func (s *MemStore) DumpTable(tbl string) []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tbl]
	if !ok {
		return nil
	}
	hashKeys := make([]string, 0, len(t.groups))
	for hk := range t.groups {
		hashKeys = append(hashKeys, hk)
	}
	sort.Strings(hashKeys)
	out := make([]Item, 0, t.items)
	for _, hk := range hashKeys {
		out = append(out, t.view(t.groups[hk], true)...)
	}
	return out
}

// ArenaStats is the physical footprint of one table's arena (arena.go), as
// opposed to the modeled sizes TableBytes and OverheadBytes report.
type ArenaStats struct {
	LiveBytes int64 // encoded records of stored items
	DeadBytes int64 // records retired by overwrites and deletes, not yet dropped
	Chunks    int64
	Rewrites  int64 // times the table was copied into fresh chunks
}

// Metric names under which the warehouse publishes the ArenaStats of its
// index tables, summed: three gauges and a counter.
const (
	MetricArenaLiveBytes = "kv.arena.live_bytes"
	MetricArenaDeadBytes = "kv.arena.dead_bytes"
	MetricArenaChunks    = "kv.arena.chunks"
	MetricArenaRewrites  = "kv.arena.rewrites"
)

// ArenaStats returns a table's physical footprint (zero for a missing table).
func (s *MemStore) ArenaStats(tbl string) ArenaStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tbl]
	if !ok {
		return ArenaStats{}
	}
	return ArenaStats{LiveBytes: t.live, DeadBytes: t.dead, Chunks: int64(len(t.chunks)), Rewrites: t.rewrites}
}
