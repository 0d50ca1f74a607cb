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
// owner into one set, the per-version tombstone consulted at posting-decode
// time. It goes through the record decoder like any stored value.
func deadSetFor(owner string, items []kv.Item, binaryIDs bool) (*idblock.Set, error) {
	postings, err := decodeKey(kv.ItemRecords(items), nil, IDPosting, binaryIDs)
	if err != nil || postings[owner] == nil {
		return nil, err
	}
	return postings[owner].IDSet(), nil
}

// applyTombstones filters one key's assembled postings through the
// overlay's tombstones. Postings are shared with the cache and with
// concurrent look-ups pinned at other versions, so the map and any
// modified posting are copied, never mutated: the tombstone is applied at
// decode time, on the way out. For identifier postings the subtraction
// goes through idblock.MergeTombstones, which keeps unaffected blocks
// encoded; other kinds drop the owner's posting wholesale (the retained
// contribution is, by construction, the owner's entire posting).
func applyTombstones(postings map[string]*Posting, ov kv.Overlay, kind PostingKind, binaryIDs bool) (map[string]*Posting, error) {
	if len(ov.Tombstones) == 0 {
		return postings, nil
	}
	touched := false
	for owner := range ov.Tombstones {
		if _, ok := postings[owner]; ok {
			touched = true
			break
		}
	}
	if !touched {
		return postings, nil
	}
	out := make(map[string]*Posting, len(postings))
	for owner, p := range postings {
		tomb, dead := ov.Tombstones[owner]
		if !dead {
			out[owner] = p
			continue
		}
		if kind != IDPosting {
			continue
		}
		deadSet, err := deadSetFor(owner, tomb, binaryIDs)
		if err != nil {
			return nil, err
		}
		kept, err := subtractPosting(p, deadSet)
		if err != nil {
			return nil, err
		}
		if kept != nil {
			out[owner] = kept
		}
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
