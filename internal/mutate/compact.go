package mutate

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cloud/kv"
)

// CompactStats reports one compaction: the billed store work done to fold
// the write buffer into the main store. Time is the modeled store time of
// that work; the caller charges it to the warehouse clock and to the
// index.compact span.
type CompactStats struct {
	Horizon  uint64 // fold horizon the pass ran at
	Folds    int    // (table, key, owner) triples folded
	Puts     int    // items written
	Deletes  int    // items deleted, each billed as one write unit
	Requests int    // billed store requests issued: batches of puts or deletes
	Bytes    int64  // payload bytes written
	Time     time.Duration
}

// Compact folds every buffered entry at or below the fold horizon into the
// main store and retires it from the buffer. Folded items are the same
// content-derived items a direct write would produce, re-writes are diffed
// against what the compactor previously folded (unchanged items are not
// re-put), and deletes and puts are group-committed in batches packed to
// the store's batch limit — the bulk loader's amortization applied to
// maintenance traffic. Per table the deletes ship before the puts, so a
// pass issues ⌈deletes/limit⌉ + ⌈puts/limit⌉ requests a table.
//
// Buffer entries are retired only after every store write and delete has
// landed, so a reader that captured its overlays mid-pass saw either the
// live entry (which wins wholesale over whatever the store returned) or
// the completed fold. A crashed pass re-runs from the same buffer state
// over idempotent content-derived keys and converges; one pass runs at a
// time.
func (c *Corpus) Compact() (CompactStats, error) {
	c.compactMu.Lock()
	defer c.compactMu.Unlock()

	c.mu.Lock()
	horizon := c.horizonLocked()
	c.mu.Unlock()

	stats := CompactStats{Horizon: horizon}
	units := c.delta.Pending(horizon)
	if len(units) == 0 {
		return stats, nil
	}
	stats.Folds = len(units)

	puts := map[string][]kv.Item{}
	dels := map[string][]kv.Key{}
	next, prev := map[string]bool{}, map[string]kv.Item{}
	for _, u := range units {
		var live []kv.Item
		if !u.Entry.Tombstone {
			live = u.Entry.Items
		}
		clear(next)
		clear(prev)
		for _, it := range live {
			next[it.RangeKey] = true
		}
		for _, it := range u.Base {
			prev[it.RangeKey] = it
			if !next[it.RangeKey] {
				dels[u.Table] = append(dels[u.Table], kv.Key{HashKey: u.HashKey, RangeKey: it.RangeKey})
			}
		}
		for _, it := range live {
			if old, ok := prev[it.RangeKey]; ok && itemEqual(old, it) {
				continue
			}
			puts[u.Table] = append(puts[u.Table], it)
		}
	}

	tables := make([]string, 0, len(puts)+len(dels))
	for t := range puts {
		tables = append(tables, t)
	}
	for t := range dels {
		if _, ok := puts[t]; !ok {
			tables = append(tables, t)
		}
	}
	sort.Strings(tables)

	maxBatch := max(c.lim.BatchPutItems, 1)
	for _, table := range tables {
		for keys := dels[table]; len(keys) > 0; {
			batch := keys[:min(maxBatch, len(keys))]
			keys = keys[len(batch):]
			d, err := c.store.BatchDelete(table, batch)
			stats.Time += d
			if err != nil {
				return stats, fmt.Errorf("compact: batch delete %s: %w", table, err)
			}
			stats.Requests++
			stats.Deletes += len(batch)
		}
		for items := puts[table]; len(items) > 0; {
			batch := items[:min(maxBatch, len(items))]
			items = items[len(batch):]
			d, err := c.store.BatchPut(table, batch)
			stats.Time += d
			if err != nil {
				return stats, fmt.Errorf("compact: batch put %s: %w", table, err)
			}
			stats.Requests++
			stats.Puts += len(batch)
			for _, it := range batch {
				stats.Bytes += it.Size()
			}
		}
	}

	// Every write landed: retire the folded entries so post-pass captures
	// see the folded stamp, then trim document history the horizon passed.
	c.delta.Commit(units)
	c.mu.Lock()
	c.trimDocsLocked(horizon)
	c.mutations = 0
	c.mu.Unlock()

	c.met.folds.Add(int64(stats.Folds))
	c.met.items.Add(int64(stats.Puts))
	c.met.deletes.Add(int64(stats.Deletes))
	c.met.requests.Add(int64(stats.Requests))
	c.met.bytes.Add(stats.Bytes)
	return stats, nil
}

// trimDocsLocked drops retained document versions no pinnable view can
// reach: everything strictly older than the newest entry at or below
// horizon. Requires c.mu.
func (c *Corpus) trimDocsLocked(horizon uint64) {
	for uri, hist := range c.docs {
		keepFrom := 0
		for i := range hist {
			if hist[i].ver <= horizon {
				keepFrom = i
			}
		}
		if keepFrom > 0 {
			c.docs[uri] = append([]docVersion(nil), hist[keepFrom:]...)
		}
	}
}
