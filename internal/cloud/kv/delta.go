package kv

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// Delta is the in-memory versioned write overlay of the mutable warehouse —
// the LSM memtable sitting in front of a Store. Each entry records, for one
// (table, hash key, owner) triple, either the owner's full replacement
// contribution to that key or a tombstone retaining the contribution it
// removed. Entries are version-stamped; readers capture the latest entry at
// or below their pinned version, and the compactor folds entries at or
// below the fold horizon into the main store before removing them.
//
// The overlay carries no billing: it models the warehouse process's own
// memory. Every billed operation happens when the compactor writes the
// folded items through the metered store.
//
// Race discipline (what makes snapshot reads safe against a concurrent
// fold): readers call Capture BEFORE fetching from the main store, and the
// compactor calls Commit only AFTER all of a fold's main-store writes and
// deletes have landed. A reader that still sees an entry uses it and drops
// the owner's main-store items entirely, so a half-written fold is
// invisible; a reader that no longer sees the entry is guaranteed the fold
// completed and the main store carries the folded state.
type Delta struct {
	mu   sync.Mutex
	keys map[tableKey]*deltaCell
	// live holds the cells with entries, in the (table, hash key) order of
	// the last Pending and then in order of arrival: a fold pass and Len
	// walk these, not every key ever folded. A cell joins on its first
	// entry and leaves in the Commit that retires its last.
	live []*deltaCell
}

type tableKey struct {
	Table   string
	HashKey string
}

// deltaCell holds one (table, hash key)'s overlay state.
type deltaCell struct {
	key    tableKey
	inLive bool                    // listed in Delta.live
	owners map[string][]DeltaEntry // ascending by Version
	// folded is what the compactor has written to the main store per
	// owner — the base the next fold diffs against to delete stale items.
	folded map[string][]Item
	// foldedStamp is the highest folded version; it keeps reader cache
	// stamps monotonic across folds, so a cache entry filled before a
	// fold can never alias a post-fold state.
	foldedStamp uint64
	// retired counts the tombstones folded on this key, and is the high
	// part of every stamp. A live tombstone does not move the stamp, so
	// postings cached while it is live still hold the removed owner's
	// items, under whatever stamp the visible replace entries give. The
	// fold deletes those items from the main store: from then on no stamp
	// handed out before may be handed out again, and a version alone
	// cannot promise that, because a replace entry newer than the
	// tombstone may fold with it and leave its own version as the stamp.
	retired uint64
}

// stampVersionBits is the low half of a stamp, which holds a version; the
// key's count of retired tombstones is the high half. Corpus versions count
// mutations and a tombstone is one mutation's, so neither half fills before
// the corpus has seen 2^32 mutations; Capture panics rather than hand out a
// stamp that has wrapped.
const stampVersionBits = 32

// DeltaEntry is one versioned overlay record.
type DeltaEntry struct {
	Version   uint64
	Tombstone bool
	// Items is the owner's full contribution to the key (replace
	// semantics). For a tombstone it retains the contribution being
	// removed, so readers can subtract it at posting-decode time.
	Items []Item
}

// Overlay is what a reader captures for one hash key at one version.
type Overlay struct {
	// Stamp discriminates posting-cache identities: it advances
	// when a replace entry becomes visible or when any entry folds, and
	// deliberately does NOT advance for a live tombstone — deletions are
	// applied to the shared cached posting at decode time instead of
	// evicting it. Folding a tombstone moves it past every stamp handed
	// out while the tombstone was live. Equal stamps mean equal postings;
	// a stamp is not a version.
	Stamp uint64
	// Replaces maps owner -> full replacement items; the owner's
	// main-store items must be dropped and these used instead.
	Replaces map[string][]Item
	// Tombstones maps owner -> the retained contribution to subtract.
	Tombstones map[string][]Item
}

// NewDelta returns an empty overlay.
func NewDelta() *Delta {
	return &Delta{keys: map[tableKey]*deltaCell{}}
}

// add appends an entry to (table, hashKey, owner), creating the cell on
// first use and listing it as live. Requires d.mu.
func (d *Delta) add(table, hashKey, owner string, e DeltaEntry) {
	tk := tableKey{table, hashKey}
	c := d.keys[tk]
	if c == nil {
		c = &deltaCell{key: tk, owners: map[string][]DeltaEntry{}, folded: map[string][]Item{}}
		d.keys[tk] = c
	}
	if !c.inLive {
		c.inLive = true
		d.live = append(d.live, c)
	}
	c.owners[owner] = append(c.owners[owner], e)
}

// Put appends a replace entry: owner's contribution to (table, hashKey)
// becomes items as of version ver.
func (d *Delta) Put(table, hashKey, owner string, ver uint64, items []Item) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.add(table, hashKey, owner, DeltaEntry{Version: ver, Items: items})
}

// Tombstone appends a removal entry retaining the contribution prev that it
// removes.
func (d *Delta) Tombstone(table, hashKey, owner string, ver uint64, prev []Item) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.add(table, hashKey, owner, DeltaEntry{Version: ver, Tombstone: true, Items: prev})
}

// latestAt returns the latest entry at or below ver, or nil.
func latestAt(es []DeltaEntry, ver uint64) *DeltaEntry {
	var latest *DeltaEntry
	for i := range es {
		if es[i].Version <= ver {
			latest = &es[i]
		}
	}
	return latest
}

// Capture returns, for each requested hash key, the overlay visible at
// version ver. Keys with no visible overlay and no folded stamp are omitted
// — an absent key means "read the main store as-is".
func (d *Delta) Capture(table string, keys []string, ver uint64) map[string]Overlay {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out map[string]Overlay
	for _, key := range keys {
		c := d.keys[tableKey{table, key}]
		if c == nil {
			continue
		}
		var ov Overlay
		newest := c.foldedStamp // the newest state the reader sees: a fold or a replace entry
		for owner, es := range c.owners {
			latest := latestAt(es, ver)
			if latest == nil {
				continue
			}
			if latest.Tombstone {
				if ov.Tombstones == nil {
					ov.Tombstones = map[string][]Item{}
				}
				ov.Tombstones[owner] = latest.Items
			} else {
				if ov.Replaces == nil {
					ov.Replaces = map[string][]Item{}
				}
				ov.Replaces[owner] = latest.Items
				if latest.Version > newest {
					newest = latest.Version
				}
			}
		}
		if newest>>stampVersionBits != 0 || c.retired>>(64-stampVersionBits) != 0 {
			panic("kv: delta stamp overflow")
		}
		ov.Stamp = c.retired<<stampVersionBits | newest
		if ov.Stamp == 0 && ov.Replaces == nil && ov.Tombstones == nil {
			continue
		}
		if out == nil {
			out = map[string]Overlay{}
		}
		out[key] = ov
	}
	return out
}

// FoldUnit is one triple's pending fold work: the latest visible entry at
// the horizon, the main-store base to diff against, and the versions to
// retire on Commit.
type FoldUnit struct {
	Table   string
	HashKey string
	Owner   string
	Entry   DeltaEntry
	Base    []Item // what the compactor previously folded for this triple
	retire  uint64 // highest entry version covered by this fold
}

// Pending snapshots the fold work at horizon: for every triple with entries
// at or below horizon, the latest such entry plus its folded base. Units
// are ordered deterministically (table, hash key, owner). It walks the live
// cells only, so a pass costs what it folds, not what was ever folded, and
// it sorts the cells, not the units: a cell rarely has two owners.
func (d *Delta) Pending(horizon uint64) []FoldUnit {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Sorted in place, the live list stays nearly sorted for the next pass:
	// Commit keeps its order, and new cells join at the end.
	slices.SortFunc(d.live, func(a, b *deltaCell) int {
		return cmp.Or(strings.Compare(a.key.Table, b.key.Table), strings.Compare(a.key.HashKey, b.key.HashKey))
	})
	n := 0 // at most one unit per owner of a live cell
	for _, c := range d.live {
		n += len(c.owners)
	}
	units := make([]FoldUnit, 0, n)
	for _, c := range d.live {
		first := len(units)
		for owner, es := range c.owners {
			latest := latestAt(es, horizon)
			if latest == nil {
				continue
			}
			units = append(units, FoldUnit{
				Table:   c.key.Table,
				HashKey: c.key.HashKey,
				Owner:   owner,
				Entry:   *latest,
				Base:    c.folded[owner],
				retire:  latest.Version,
			})
		}
		if len(units)-first > 1 {
			slices.SortFunc(units[first:], func(a, b FoldUnit) int { return strings.Compare(a.Owner, b.Owner) })
		}
	}
	return units
}

// Commit retires the folded units after their main-store writes landed:
// entries at or below each unit's covered version are dropped, the folded
// base advances, and the key's stamp becomes at least the folded version —
// and, where a tombstone folded, one no reader has seen.
func (d *Delta) Commit(units []FoldUnit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	emptied := false
	for _, u := range units {
		c := d.keys[tableKey{u.Table, u.HashKey}]
		if c == nil {
			continue
		}
		es := c.owners[u.Owner]
		var kept []DeltaEntry
		for _, e := range es {
			if e.Version > u.retire {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(c.owners, u.Owner)
			emptied = emptied || len(c.owners) == 0
		} else {
			c.owners[u.Owner] = kept
		}
		if u.Entry.Tombstone {
			delete(c.folded, u.Owner)
			c.retired++
		} else {
			c.folded[u.Owner] = u.Entry.Items
		}
		if u.retire > c.foldedStamp {
			c.foldedStamp = u.retire
		}
	}
	if emptied {
		d.live = slices.DeleteFunc(d.live, func(c *deltaCell) bool {
			c.inLive = len(c.owners) > 0
			return !c.inLive
		})
	}
}

// Len returns the number of live overlay entries (all versions), for tests
// and stats.
func (d *Delta) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.live {
		for _, es := range c.owners {
			n += len(es)
		}
	}
	return n
}
