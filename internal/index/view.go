package index

import "repro/internal/cloud/kv"

// ReadView is a pinned snapshot of a mutable corpus, threaded through
// look-ups via LookupOptions.View. It overlays the versioned write buffer
// (kv.Delta) on the main store: a look-up captures each key's overlay
// BEFORE fetching from the store, so a background compaction fold landing
// mid-read is invisible — either the overlay entry is still live and wins
// wholesale, or it was committed and the main store already carries the
// folded state.
type ReadView interface {
	// Version is the pinned corpus version.
	Version() uint64
	// Capture returns the overlays of the requested hash keys visible at
	// the pinned version; keys absent from the result read the main store
	// unmodified.
	Capture(table string, keys []string) map[string]kv.Overlay
}

// applyTombstones drops the rows of the overlay's tombstoned owners from
// one key's list: a tombstoned owner contributes nothing to the key at the
// pinned version, whatever version of it the store holds. Lists are shared
// with the cache and with concurrent look-ups pinned at other versions, so
// a list a tombstone touches is copied, never mutated: the tombstone is
// applied at read time, on the way out. The copy shares the rows' values.
func applyTombstones(l *PostingList, ov kv.Overlay) *PostingList {
	touched := false
	for owner := range ov.Tombstones {
		if i := l.seek(0, owner); i < len(l.rows) && l.rows[i].uri == owner {
			touched = true
			break
		}
	}
	if !touched {
		return l
	}
	out := &PostingList{kind: l.kind, binaryIDs: l.binaryIDs, rows: make([]uriRow, 0, len(l.rows))}
	for i := 0; i < len(l.rows); {
		end := l.runEnd(i)
		if !ov.Tombstones[l.rows[i].uri] {
			out.rows = append(out.rows, l.rows[i:end]...)
			out.uris++
		}
		i = end
	}
	return out
}
