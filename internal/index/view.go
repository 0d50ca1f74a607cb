package index

import (
	"sort"

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

// applyReplaces merges one key's fetched main-store items with the
// overlay's replacement contributions: every item belonging to a replaced
// owner is dropped (the overlay holds that owner's full contribution) and
// the replacement items are appended. The merged slice is re-sorted by
// range key so decoding sees the same deterministic order a store fetch of
// the folded state would produce. Item-count accounting of the fetched
// items is the caller's: replacements come from the warehouse's memory and
// bill nothing.
func applyReplaces(items []kv.Item, ov kv.Overlay) []kv.Item {
	if len(ov.Replaces) == 0 {
		return items
	}
	merged := make([]kv.Item, 0, len(items)+len(ov.Replaces))
	for _, it := range items {
		if len(it.Attrs) == 1 {
			if _, replaced := ov.Replaces[it.Attrs[0].Name]; replaced {
				continue
			}
		}
		merged = append(merged, it)
	}
	owners := make([]string, 0, len(ov.Replaces))
	for owner := range ov.Replaces {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		merged = append(merged, ov.Replaces[owner]...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].HashKey != merged[j].HashKey {
			return merged[i].HashKey < merged[j].HashKey
		}
		return merged[i].RangeKey < merged[j].RangeKey
	})
	return merged
}

// deadSetFor parses the identifier contribution retained by a tombstone
// into one merged Set — the per-version tombstone consulted at
// posting-decode time.
func deadSetFor(items []kv.Item, binaryIDs bool) (*idblock.Set, error) {
	var segs []*idblock.Set
	var eager []xmltree.NodeID
	for _, it := range items {
		for _, a := range it.Attrs {
			for _, v := range a.Values {
				set, ids, err := DecodeIDSet(v, binaryIDs)
				if err != nil {
					return nil, err
				}
				if set != nil {
					segs = append(segs, set)
				} else {
					eager = append(eager, ids...)
				}
			}
		}
	}
	if len(eager) == 0 {
		if merged, ok := idblock.Merge(segs); ok {
			return merged, nil
		}
	}
	for _, s := range segs {
		ids, err := s.All()
		if err != nil {
			return nil, err
		}
		eager = append(eager, ids...)
	}
	if len(eager) == 0 {
		return nil, nil
	}
	if !idblock.IsSorted(eager) {
		sortIDs(eager)
	}
	return idblock.FromIDs(eager), nil
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
		deadSet, err := deadSetFor(tomb, binaryIDs)
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
