package kv_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/cloud/kv"
)

// refStore is the map-of-maps store that kv.MemStore replaced, kept as the
// oracle of the differential tests: a deep copy on every put and get, a sort
// on every get, sizes recomputed from the items. Only its names changed.

type refTable struct {
	groups     map[string]map[string]kv.Item // hash key -> range key -> item
	userBytes  int64
	items      int64
	attrValues int64 // attribute name/value pairs, for overhead accounting
}

type refStore struct {
	cfg kv.Config

	mu      sync.RWMutex
	tables  map[string]*refTable
	clients int
}

var (
	_ kv.Store  = (*refStore)(nil)
	_ kv.Dumper = (*refStore)(nil)
)

func newRefStore(cfg kv.Config) *refStore {
	return &refStore{cfg: cfg, tables: make(map[string]*refTable)}
}

// Backend implements Store.
func (s *refStore) Backend() string { return s.cfg.Backend }

// Limits implements Store.
func (s *refStore) Limits() kv.Limits { return s.cfg.Limits }

// CreateTable implements Store.
func (s *refStore) CreateTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("%w: %q", kv.ErrTableExists, name)
	}
	s.tables[name] = &refTable{groups: make(map[string]map[string]kv.Item)}
	return nil
}

// DeleteTable implements Store.
func (s *refStore) DeleteTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("%w: %q", kv.ErrNoSuchTable, name)
	}
	delete(s.tables, name)
	return nil
}

// Tables implements Store.
func (s *refStore) Tables() []string {
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
func (s *refStore) RegisterClient() {
	s.mu.Lock()
	s.clients++
	s.mu.Unlock()
}

// UnregisterClient implements Store.
func (s *refStore) UnregisterClient() {
	s.mu.Lock()
	if s.clients > 0 {
		s.clients--
	}
	s.mu.Unlock()
}

func (s *refStore) validate(item kv.Item) error {
	if item.HashKey == "" {
		return kv.ErrEmptyKey
	}
	lim := s.cfg.Limits
	if lim.MaxItemBytes > 0 && item.Size() > lim.MaxItemBytes {
		return fmt.Errorf("%w: %d bytes > %d", kv.ErrItemTooLarge, item.Size(), lim.MaxItemBytes)
	}
	for _, a := range item.Attrs {
		for _, v := range a.Values {
			if lim.MaxValueBytes > 0 && int64(len(v)) > lim.MaxValueBytes {
				return fmt.Errorf("%w: attribute %q value of %d bytes > %d",
					kv.ErrValueTooLarge, a.Name, len(v), lim.MaxValueBytes)
			}
			if !lim.SupportsBinary && !utf8.Valid(v) {
				return fmt.Errorf("%w: attribute %q", kv.ErrNotText, a.Name)
			}
		}
	}
	return nil
}

func copyItem(item kv.Item) kv.Item {
	c := kv.Item{HashKey: item.HashKey, RangeKey: item.RangeKey, Attrs: make([]kv.Attr, len(item.Attrs))}
	for i, a := range item.Attrs {
		ca := kv.Attr{Name: a.Name, Values: make([]kv.Value, len(a.Values))}
		for j, v := range a.Values {
			ca.Values[j] = append(kv.Value(nil), v...)
		}
		c.Attrs[i] = ca
	}
	return c
}

func attrValuePairs(item kv.Item) int64 {
	var n int64
	for _, a := range item.Attrs {
		n += int64(len(a.Values))
	}
	return n
}

// putLocked stores one validated item, maintaining size accounting.
func (t *refTable) putLocked(item kv.Item) {
	g, ok := t.groups[item.HashKey]
	if !ok {
		g = make(map[string]kv.Item)
		t.groups[item.HashKey] = g
	}
	if old, ok := g[item.RangeKey]; ok {
		t.userBytes -= old.Size()
		t.items--
		t.attrValues -= attrValuePairs(old)
	}
	c := copyItem(item)
	g[item.RangeKey] = c
	t.userBytes += c.Size()
	t.items++
	t.attrValues += attrValuePairs(c)
}

// writeLatency computes the modeled duration of a write of the given payload.
// Must be called with s.mu held (read or write).
func (s *refStore) writeLatency(bytes int64) time.Duration {
	return s.latency(bytes, s.cfg.Perf.WriteUnitBytes, s.cfg.Perf.ClientWriteUnits, s.cfg.Perf.WriteCapacityUnits)
}

func (s *refStore) readLatency(bytes int64) time.Duration {
	return s.latency(bytes, s.cfg.Perf.ReadUnitBytes, s.cfg.Perf.ClientReadUnits, s.cfg.Perf.ReadCapacityUnits)
}

func (s *refStore) latency(bytes, unitBytes int64, clientRate, capacity float64) time.Duration {
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

// BatchPut implements Store.
func (s *refStore) BatchPut(tbl string, items []kv.Item) (time.Duration, error) {
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && len(items) > lim {
		return 0, fmt.Errorf("%w: %d items > %d", kv.ErrBatchTooLarge, len(items), lim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", kv.ErrNoSuchTable, tbl)
	}
	var bytes int64
	for _, it := range items {
		if err := s.validate(it); err != nil {
			return 0, err
		}
		bytes += it.Size()
	}
	for _, it := range items {
		t.putLocked(it)
	}
	d := s.writeLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(len(items)), bytes)
	return d, nil
}

// Read implements Store: it copies and sorts every requested key's items,
// meters the whole request once, and then visits the copies.
func (s *refStore) Read(ctx context.Context, tbl string, hashKeys []string, visit kv.Visitor) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if lim := s.cfg.Limits.BatchGetKeys; lim > 0 && len(hashKeys) > lim {
		return 0, fmt.Errorf("%w: %d keys > %d", kv.ErrBatchTooLarge, len(hashKeys), lim)
	}
	s.mu.RLock()
	got := make([][]kv.Item, 0, len(hashKeys))
	var bytes int64
	for _, k := range hashKeys {
		items, b, err := s.getLocked(tbl, k)
		if err != nil {
			s.mu.RUnlock()
			return 0, err
		}
		got = append(got, items)
		bytes += b
	}
	d := s.readLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, int64(len(hashKeys)), bytes)
	s.mu.RUnlock()
	for i, k := range hashKeys {
		visit(k, kv.ItemRecords(got[i]))
	}
	return d, nil
}

// BatchDelete implements Store: the batch is metered as one request of one
// write unit per key with the keys' bytes as payload (DynamoDB bills
// deletes as writes). Nothing is deleted unless every key is valid.
func (s *refStore) BatchDelete(tbl string, keys []kv.Key) (time.Duration, error) {
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && len(keys) > lim {
		return 0, fmt.Errorf("%w: %d keys > %d", kv.ErrBatchTooLarge, len(keys), lim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", kv.ErrNoSuchTable, tbl)
	}
	var keyBytes int64
	for _, k := range keys {
		if k.HashKey == "" {
			return 0, kv.ErrEmptyKey
		}
		keyBytes += int64(len(k.HashKey) + len(k.RangeKey))
	}
	for _, k := range keys {
		g, ok := t.groups[k.HashKey]
		if !ok {
			continue
		}
		if old, ok := g[k.RangeKey]; ok {
			t.userBytes -= old.Size()
			t.items--
			t.attrValues -= attrValuePairs(old)
			delete(g, k.RangeKey)
			if len(g) == 0 {
				delete(t.groups, k.HashKey)
			}
		}
	}
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(len(keys)), keyBytes)
	return s.writeLatency(keyBytes), nil
}

func (s *refStore) getLocked(tbl, hashKey string) ([]kv.Item, int64, error) {
	if hashKey == "" {
		return nil, 0, kv.ErrEmptyKey
	}
	t, ok := s.tables[tbl]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", kv.ErrNoSuchTable, tbl)
	}
	g := t.groups[hashKey]
	if len(g) == 0 {
		return nil, 0, nil
	}
	items := make([]kv.Item, 0, len(g))
	var bytes int64
	for _, it := range g {
		items = append(items, copyItem(it))
		bytes += it.Size()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].RangeKey < items[j].RangeKey })
	return items, bytes, nil
}

// TableBytes implements Store.
func (s *refStore) TableBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.userBytes
	}
	return 0
}

// OverheadBytes implements Store.
func (s *refStore) OverheadBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.items*s.cfg.PerItemOverhead + t.attrValues*s.cfg.PerAttrValueOverhead
	}
	return 0
}

// TotalBytes implements Store.
func (s *refStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.userBytes + t.items*s.cfg.PerItemOverhead + t.attrValues*s.cfg.PerAttrValueOverhead
	}
	return n
}

// DumpTable returns every item of a table in deterministic order (hash
// key, then range key). It is a verification/debugging helper outside the
// billed Store API; differential tests use it to compare whole-store
// contents across runs.
func (s *refStore) DumpTable(tbl string) []kv.Item {
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
	var out []kv.Item
	for _, hk := range hashKeys {
		g := t.groups[hk]
		rangeKeys := make([]string, 0, len(g))
		for rk := range g {
			rangeKeys = append(rangeKeys, rk)
		}
		sort.Strings(rangeKeys)
		for _, rk := range rangeKeys {
			out = append(out, copyItem(g[rk]))
		}
	}
	return out
}

// ItemCount implements Store.
func (s *refStore) ItemCount(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.items
	}
	return 0
}
