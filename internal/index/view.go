package index

import (
	"repro/internal/cloud/kv"
	"repro/internal/idblock"
	"repro/internal/xmltree"
)

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

// deadSetFor decodes the identifier contribution a tombstone retained for
// owner into one set, the per-version tombstone consulted at read time. It
// goes through the record decoder like any stored value.
func deadSetFor(owner string, items []kv.Item, binaryIDs bool) (*idblock.Set, error) {
	l, err := decodeKey(kv.ItemRecords(items), nil, IDPosting, binaryIDs, nil)
	if err != nil {
		return nil, err
	}
	p, err := l.Posting(owner)
	if err != nil || p == nil {
		return nil, err
	}
	return p.IDSet(), nil
}

// applyTombstones filters one key's list through the overlay's tombstones.
// Lists are shared with the cache and with concurrent look-ups pinned at
// other versions, so a list a tombstone touches is copied, never mutated:
// the tombstone is applied at read time, on the way out. The copy shares
// the rows' values. For identifier lists the owner's posting is subtracted
// through idblock.MergeTombstones, which keeps unaffected blocks encoded,
// and the copy holds the result as the owner's posting; other kinds drop
// the owner's rows wholesale (the retained contribution is, by
// construction, the owner's entire posting).
func applyTombstones(l *PostingList, ov kv.Overlay) (*PostingList, error) {
	touched := false
	for owner := range ov.Tombstones {
		if i := l.seek(0, owner); i < len(l.rows) && l.rows[i].uri == owner {
			touched = true
			break
		}
	}
	if !touched {
		return l, nil
	}
	out := &PostingList{kind: l.kind, binaryIDs: l.binaryIDs, rows: make([]uriRow, 0, len(l.rows))}
	for i := 0; i < len(l.rows); {
		end := l.runEnd(i)
		tomb, dead := ov.Tombstones[l.rows[i].uri]
		switch {
		case !dead:
		case l.kind != IDPosting:
			i = end
			continue
		default:
			p, _, err := l.postingAt(i, nil)
			if err != nil {
				return nil, err
			}
			deadSet, err := deadSetFor(p.URI, tomb, l.binaryIDs)
			if err != nil {
				return nil, err
			}
			kept, err := subtractPosting(p, deadSet)
			if err != nil {
				return nil, err
			}
			if kept == nil {
				i = end
				continue
			}
			if out.built == nil {
				out.built = make(map[int32]*Posting)
			}
			out.built[int32(len(out.rows))] = kept
		}
		out.rows = append(out.rows, l.rows[i:end]...)
		out.uris++
		i = end
	}
	return out, nil
}

// subtractPosting returns a copy of p with the dead identifiers removed,
// or nil when nothing survives. The lazy path hands the posting's blocked
// set to MergeTombstones so blocks outside the dead pre span stay encoded;
// postings that only exist eagerly (or whose segments cannot merge
// lazily) filter the decoded identifiers directly.
func subtractPosting(p *Posting, dead *idblock.Set) (*Posting, error) {
	if dead.Len() == 0 {
		return p, nil
	}
	if p.blocked != nil {
		if merged, ok := idblock.MergeTombstones([]*idblock.Set{p.blocked}, dead); ok {
			if merged == nil {
				return nil, nil
			}
			return &Posting{URI: p.URI, PathVals: p.PathVals, blocked: merged}, nil
		}
	}
	ids, err := p.DecodedIDs()
	if err != nil {
		return nil, err
	}
	deadAll, err := dead.All()
	if err != nil {
		return nil, err
	}
	deadPres := make(map[int32]bool, len(deadAll))
	for _, id := range deadAll {
		deadPres[id.Pre] = true
	}
	var kept []xmltree.NodeID
	for _, id := range ids {
		if !deadPres[id.Pre] {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 {
		return nil, nil
	}
	out := &Posting{URI: p.URI, PathVals: p.PathVals}
	out.setIDs(kept)
	return out, nil
}
