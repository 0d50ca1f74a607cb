package mutate

import (
	"fmt"
	"slices"
	"sort"
	"strings"
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
// content-derived items a direct write would produce. Re-writes are diffed
// against what the main store holds, the owner's newest version at or
// below the last pass's horizon (see foldBases), so unchanged items are
// not re-put. Deletes and puts are group-committed in batches packed to
// the store's batch limit — the bulk loader's amortization applied to
// maintenance traffic. Per table the deletes ship before the puts, so a
// pass issues ⌈deletes/limit⌉ + ⌈puts/limit⌉ requests a table.
//
// Buffer entries are retired only after every store write and delete has
// landed, so a reader that captured its overlays mid-pass saw either the
// live entry (which wins wholesale over whatever the store returned) or
// the completed fold. A pass that fails part-way retires nothing, and the
// next pass cannot know which of its writes landed: until a pass succeeds,
// a pass also deletes every item a failed pass may have put that its own
// entries drop, and re-puts every item it folds. Over idempotent
// content-derived keys it converges; one pass runs at a time.
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
	bases, unsure := c.foldBases(units)
	c.mu.Lock()
	c.attemptedThrough = horizon
	c.mu.Unlock()

	puts := map[string][]kv.Item{}
	dels := map[string][]kv.Key{}
	next, prev := map[string]bool{}, map[string]kv.Item{}
	for i, u := range units {
		var live []kv.Item
		if !u.Entry.Tombstone {
			live = u.Entry.Items
		}
		clear(next)
		clear(prev)
		for _, it := range live {
			next[it.RangeKey] = true
		}
		for _, it := range bases[i] {
			prev[it.RangeKey] = it
			if !next[it.RangeKey] {
				dels[u.Table] = append(dels[u.Table], kv.Key{HashKey: u.HashKey, RangeKey: it.RangeKey})
			}
		}
		if unsure != nil {
			for _, it := range unsure[i] {
				if _, ok := prev[it.RangeKey]; !ok && !next[it.RangeKey] {
					dels[u.Table] = append(dels[u.Table], kv.Key{HashKey: u.HashKey, RangeKey: it.RangeKey})
				}
				prev[it.RangeKey] = it
			}
		}
		for _, it := range live {
			// After a failed pass, any item may have been deleted or
			// rewritten: re-put them all.
			if old, ok := prev[it.RangeKey]; ok && unsure == nil && itemEqual(old, it) {
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
	// see the folded stamp, record the horizon the store now holds, and
	// trim document history it passed.
	c.delta.Commit(units)
	c.mu.Lock()
	c.foldedThrough = horizon
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

// foldBases returns, per unit, the base its fold diffs against: what the
// main store holds for the unit's (table, hash key, owner) after the last
// pass that succeeded. Every entry at or below a pass's horizon folds in
// that pass, and an entry carries a whole document version, so that is the
// owner's items under the key at its newest version at or below the last
// pass's horizon — the version trimDocsLocked keeps. A pass that failed
// part-way advances neither the horizon nor the base.
//
// When a pass has failed since, unsure holds per unit the items it may
// have put: the owner's items under the key at every version above the
// base and at or below the failed pass's horizon, which are the versions
// of the entries it was folding (history above the folded horizon is
// never trimmed). Otherwise unsure is nil.
func (c *Corpus) foldBases(units []kv.FoldUnit) (bases, unsure [][]kv.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bases = make([][]kv.Item, len(units))
	if c.attemptedThrough > c.foldedThrough {
		unsure = make([][]kv.Item, len(units))
	}
	for i, u := range units {
		hist := c.docs[u.Owner] // an absent version has no items
		if dv := latestDoc(hist, c.foldedThrough); dv != nil {
			bases[i] = keyItems(dv.items[u.Table], u.HashKey)
		}
		if unsure == nil {
			continue
		}
		for _, dv := range hist {
			if dv.ver > c.foldedThrough && dv.ver <= c.attemptedThrough {
				unsure[i] = append(unsure[i], keyItems(dv.items[u.Table], u.HashKey)...)
			}
		}
	}
	return bases, unsure
}

// keyItems returns a slab's items under one hash key, found by binary
// search, or nil.
func keyItems(slab []kv.Item, key string) []kv.Item {
	i, found := slices.BinarySearchFunc(slab, key, func(it kv.Item, key string) int {
		return strings.Compare(it.HashKey, key)
	})
	if !found {
		return nil
	}
	group, _ := keyGroup(slab[i:])
	return group
}

// trimDocsLocked drops retained document versions no pinnable view can
// reach: everything strictly older than the newest entry at or below
// horizon. Requires c.mu.
func (c *Corpus) trimDocsLocked(horizon uint64) {
	for uri, hist := range c.docs {
		keepFrom := sort.Search(len(hist), func(i int) bool { return hist[i].ver > horizon }) - 1
		if keepFrom > 0 {
			c.docs[uri] = append([]docVersion(nil), hist[keepFrom:]...)
		}
	}
}
