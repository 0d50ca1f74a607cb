package kv

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/meter"
	"repro/internal/slab"
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

	// mu guards the table set and the client count; an operation on a table
	// holds it for reading and the table's own lock besides.
	mu      sync.RWMutex
	tables  map[string]*table
	clients int

	// reads are the buffers of the reads not running.
	reads slab.Idle[readBuf]
}

var (
	_ Store  = (*MemStore)(nil)
	_ Dumper = (*MemStore)(nil)
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
// Must be called with s.mu held (read or write), which guards the client
// count.
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

// BatchPut implements Store: the batch is metered as one request and
// latency-modeled from its combined payload. Nothing is stored unless every
// item is valid.
func (s *MemStore) BatchPut(tbl string, items []Item) (time.Duration, error) {
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && len(items) > lim {
		return 0, fmt.Errorf("%w: %d items > %d", ErrBatchTooLarge, len(items), lim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var bytes int64
	for _, it := range items {
		size, err := s.validate(it)
		if err != nil {
			return 0, err
		}
		bytes += size
	}
	for _, it := range items {
		t.put(it)
	}
	t.maybeRewrite()
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(len(items)), bytes)
	return s.writeLatency(bytes), nil
}

// Read implements Store. The whole request is metered once with its key
// count and payload. Like every read it stops, before anything is read or
// metered, on a cancelled context. Keys are visited in request order once
// the table's lock is released: a failed read has visited nothing.
func (s *MemStore) Read(ctx context.Context, tbl string, hashKeys []string, visit Visitor) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if lim := s.cfg.Limits.BatchGetKeys; lim > 0 && len(hashKeys) > lim {
		return 0, fmt.Errorf("%w: %d keys > %d", ErrBatchTooLarge, len(hashKeys), lim)
	}
	buf := s.reads.Get()
	defer s.release(buf)
	d, err := s.take(buf, tbl, hashKeys)
	if err != nil {
		return 0, err
	}
	for i, k := range hashKeys {
		visit(k, &buf.recs[i])
	}
	return d, nil
}

// readBuf is the cursors of one read and the record references they walk.
// Visitors keep neither past their return, so a read hands its buffer back
// to the store when it is done.
type readBuf struct {
	recs []Records
	refs []ref
}

// release clears the cursors, which reference the table's chunk list, and
// gives the buffer back for the store's next read.
func (s *MemStore) release(b *readBuf) {
	clear(b.recs)
	b.recs = b.recs[:0]
	s.reads.Put(b)
}

// take is the part of a read that runs under the table's lock: it checks
// every key, takes a cursor over each key's records into buf, meters the
// request and models its latency. A cursor holds its own copy of the
// group's references, since writers move them in place, and the table's
// chunk list and names as they are now, which writers only ever extend.
func (s *MemStore) take(buf *readBuf, tbl string, hashKeys []string) (time.Duration, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tbl]
	if ok {
		t.mu.RLock()
		defer t.mu.RUnlock()
	}
	recs := slices.Grow(buf.recs[:0], len(hashKeys))
	var sum Tally
	for _, k := range hashKeys {
		if k == "" {
			return 0, ErrEmptyKey
		}
		if !ok { // checked per key: an empty read of a missing table succeeds
			return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
		}
		var r Records
		if grp := t.groups[k]; grp != nil {
			r = t.records(grp)
		}
		recs = append(recs, r)
		sum.add(r.sum)
	}
	refs := slices.Grow(buf.refs[:0], int(sum.Items))
	for i := range recs {
		n := len(refs)
		refs = append(refs, recs[i].refs...)
		recs[i].refs = refs[n:len(refs):len(refs)]
	}
	buf.recs, buf.refs = recs, refs
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, int64(len(hashKeys)), sum.Bytes)
	return s.readLatency(sum.Bytes), nil
}

// BatchDelete implements Store: the batch is metered as one request of one
// write unit per key, with the keys' bytes as payload (DynamoDB bills
// deletes as writes), and latency-modeled from that payload. Nothing is
// deleted unless every key is valid.
func (s *MemStore) BatchDelete(tbl string, keys []Key) (time.Duration, error) {
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && len(keys) > lim {
		return 0, fmt.Errorf("%w: %d keys > %d", ErrBatchTooLarge, len(keys), lim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var bytes int64
	for _, k := range keys {
		if k.HashKey == "" {
			return 0, ErrEmptyKey
		}
		bytes += k.Size()
	}
	for _, k := range keys {
		t.delete(k.HashKey, k.RangeKey)
	}
	t.maybeRewrite()
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(len(keys)), bytes)
	return s.writeLatency(bytes), nil
}

// TableBytes implements Store.
func (s *MemStore) TableBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		t.mu.RLock()
		defer t.mu.RUnlock()
		return t.sum.Bytes
	}
	return 0
}

// overhead is the modeled service's auxiliary bytes for a table.
func (s *MemStore) overhead(t *table) int64 {
	return t.sum.Items*s.cfg.PerItemOverhead + t.sum.Values*s.cfg.PerAttrValueOverhead
}

// OverheadBytes implements Store.
func (s *MemStore) OverheadBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		t.mu.RLock()
		defer t.mu.RUnlock()
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
		t.mu.RLock()
		n += t.sum.Bytes + s.overhead(t)
		t.mu.RUnlock()
	}
	return n
}

// ItemCount implements Store.
func (s *MemStore) ItemCount(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		t.mu.RLock()
		defer t.mu.RUnlock()
		return t.sum.Items
	}
	return 0
}

// DumpTable returns every item of a table in deterministic order (hash
// key, then range key), as read-only views like a read's. It is a
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	hashKeys := make([]string, 0, len(t.groups))
	for hk := range t.groups {
		hashKeys = append(hashKeys, hk)
	}
	sort.Strings(hashKeys)
	out := make([]Item, 0, t.sum.Items)
	for _, hk := range hashKeys {
		out = append(out, t.view(hk, t.groups[hk], true)...)
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	return ArenaStats{LiveBytes: t.live, DeadBytes: t.dead, Chunks: int64(len(t.chunks)), Rewrites: t.rewrites}
}
