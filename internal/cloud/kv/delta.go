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
// contribution to that key or a tombstone: the owner contributes nothing
// to it. Entries are version-stamped; readers capture the latest entry at
// or below their pinned version, and the compactor folds entries at or
// below the fold horizon into the main store before removing them.
//
// The overlay holds items only while a replace entry is live: the entries
// alias the caller's items, and a retired entry lets go of them. What the
// main store holds after a fold is the caller's record to keep (the mutable
// corpus keeps it as per-document history); a cell whose entries have all
// retired keeps only its key and its stamp.
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
	inLive bool // listed in Delta.live
	// owners holds the live entries per owner, sorted by owner; nil once
	// the last entry retires.
	owners []ownerEntries
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

// ownerEntries is one owner's live entries on a cell.
type ownerEntries struct {
	owner   string
	entries []DeltaEntry // ascending by Version
}

// ownerIndex returns where owner's entries sit in c.owners, or where they
// would be inserted, and whether they are there.
func (c *deltaCell) ownerIndex(owner string) (int, bool) {
	return slices.BinarySearchFunc(c.owners, owner, func(o ownerEntries, owner string) int {
		return strings.Compare(o.owner, owner)
	})
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
	// semantics); a tombstone has none.
	Items []Item
}

// Overlay is what a reader captures for one hash key at one version.
type Overlay struct {
	// Stamp discriminates posting-cache identities: it advances
	// when a replace entry becomes visible or when any entry folds, and
	// deliberately does NOT advance for a live tombstone — a removed
	// owner's rows are dropped from the shared cached posting on the way
	// out instead of evicting it. Folding a tombstone moves it past every
	// stamp handed out while the tombstone was live. Equal stamps mean
	// equal postings; a stamp is not a version.
	Stamp uint64
	// Replaces maps owner -> full replacement items; the owner's
	// main-store items must be dropped and these used instead.
	Replaces map[string][]Item
	// Tombstones holds the owners that contribute nothing to the key: their
	// main-store items must be dropped.
	Tombstones map[string]bool
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
		c = &deltaCell{key: tk}
		d.keys[tk] = c
	}
	if !c.inLive {
		c.inLive = true
		d.live = append(d.live, c)
	}
	i, ok := c.ownerIndex(owner)
	if !ok {
		c.owners = slices.Insert(c.owners, i, ownerEntries{owner: owner})
	}
	c.owners[i].entries = append(c.owners[i].entries, e)
}

// Put appends a replace entry: owner's contribution to (table, hashKey)
// becomes items as of version ver.
func (d *Delta) Put(table, hashKey, owner string, ver uint64, items []Item) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.add(table, hashKey, owner, DeltaEntry{Version: ver, Items: items})
}

// Tombstone appends a removal entry: owner contributes nothing to (table,
// hashKey) as of version ver.
func (d *Delta) Tombstone(table, hashKey, owner string, ver uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.add(table, hashKey, owner, DeltaEntry{Version: ver, Tombstone: true})
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
		for _, o := range c.owners {
			latest := latestAt(o.entries, ver)
			if latest == nil {
				continue
			}
			if latest.Tombstone {
				if ov.Tombstones == nil {
					ov.Tombstones = map[string]bool{}
				}
				ov.Tombstones[o.owner] = true
			} else {
				if ov.Replaces == nil {
					ov.Replaces = map[string][]Item{}
				}
				ov.Replaces[o.owner] = latest.Items
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
// the horizon and the versions to retire on Commit. What the main store
// holds for the triple — the base a fold diffs against — is the caller's
// record, not the overlay's.
type FoldUnit struct {
	Table   string
	HashKey string
	Owner   string
	Entry   DeltaEntry
	retire  uint64 // highest entry version covered by this fold
}

// Pending snapshots the fold work at horizon: for every triple with entries
// at or below horizon, the latest such entry. Units are ordered
// deterministically (table, hash key, owner). It walks the live cells only,
// so a pass costs what it folds, not what was ever folded, and it sorts the
// cells, not the units: a cell keeps its owners sorted.
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
		for _, o := range c.owners {
			latest := latestAt(o.entries, horizon)
			if latest == nil {
				continue
			}
			units = append(units, FoldUnit{
				Table:   c.key.Table,
				HashKey: c.key.HashKey,
				Owner:   o.owner,
				Entry:   *latest,
				retire:  latest.Version,
			})
		}
	}
	return units
}

// Commit retires the folded units after their main-store writes landed:
// entries at or below each unit's covered version are dropped, and the
// key's stamp becomes at least the folded version — and, where a tombstone
// folded, one no reader has seen. An owner's surviving entries stay in
// their own backing array; an owner with none leaves the cell, and a cell
// with no owners holds no slice.
func (d *Delta) Commit(units []FoldUnit) {
	d.mu.Lock()
	defer d.mu.Unlock()
	emptied := false
	for _, u := range units {
		c := d.keys[tableKey{u.Table, u.HashKey}]
		if c == nil {
			continue
		}
		if i, ok := c.ownerIndex(u.Owner); ok {
			es := c.owners[i].entries
			kept := es[:0]
			for _, e := range es {
				if e.Version > u.retire {
					kept = append(kept, e)
				}
			}
			clear(es[len(kept):]) // the retired entries' items are the store's now
			if len(kept) > 0 {
				c.owners[i].entries = kept
			} else {
				c.owners = slices.Delete(c.owners, i, i+1)
				if len(c.owners) == 0 {
					c.owners = nil
				}
			}
		}
		emptied = emptied || c.owners == nil
		if u.Entry.Tombstone {
			c.retired++
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
		for _, o := range c.owners {
			n += len(o.entries)
		}
	}
	return n
}
