package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cloud/kv"
)

// CheckLayout holds one table's items, got, to the bulk layout of
// DESIGN §7.5 and to the postings of a reference dump of the same table, want,
// which may be laid out per document or packed. It checks that
//
//   - each (key, URI) contribution lives in exactly one item, unless it is
//     larger than the item budget, when it lives in the per-document chunk
//     items ItemRangeKey(uri, table, 0…n−1) groupLen's split gives;
//   - a pack's members are in strictly ascending URI order, its range key
//     is its first member's (packRangeKey) and a pack of two or more fits
//     the budget;
//   - each (key, URI)'s values, concatenated in ordinal order, equal want's.
//
// It returns nil, or an error naming the first few violations.
func CheckLayout(lim kv.Limits, table string, got, want []kv.Item) error {
	budget := itemBudgetFor(lim)
	var errs []error
	fail := func(format string, args ...any) bool {
		if len(errs) < 8 {
			errs = append(errs, fmt.Errorf(format, args...))
		}
		return len(errs) < 8
	}
	for _, it := range got {
		if len(it.Attrs) < 2 {
			continue
		}
		size := int64(len(it.HashKey))
		for i, a := range it.Attrs {
			size += a.Size()
			if i > 0 && a.Name <= it.Attrs[i-1].Name {
				fail("%s/%s: members %q, %q out of URI order", it.HashKey, it.RangeKey, it.Attrs[i-1].Name, a.Name)
			}
		}
		if rk := packRangeKey(it.Attrs[0].Name, table, len(it.Attrs)); it.RangeKey != rk {
			fail("%s/%s: a pack of %d first member %q wants range key %s", it.HashKey, it.RangeKey, len(it.Attrs), it.Attrs[0].Name, rk)
		}
		if size > budget {
			fail("%s/%s: a pack of %d holds %d bytes, over the %d-byte budget", it.HashKey, it.RangeKey, len(it.Attrs), size, budget)
		}
	}
	gotPostings, err := postingsOf(table, got, budget)
	if err != nil {
		errs = append(errs, err)
	}
	wantPostings, err := postingsOf(table, want, budget)
	if err != nil {
		errs = append(errs, fmt.Errorf("reference: %w", err))
	}
	for k, v := range wantPostings {
		if g, ok := gotPostings[k]; !ok {
			if !fail("%s: URI %q missing", k.key, k.uri) {
				break
			}
		} else if g != v {
			if !fail("%s: URI %q holds other values", k.key, k.uri) {
				break
			}
		}
	}
	for k := range gotPostings {
		if _, ok := wantPostings[k]; !ok {
			if !fail("%s: URI %q not in the reference", k.key, k.uri) {
				break
			}
		}
	}
	return errors.Join(errs...)
}

// contribKey names one contribution: a URI under a hash key.
type contribKey struct{ key, uri string }

// postingsOf returns each contribution's values in ordinal order, encoded as
// one string of length-prefixed values. A contribution in one item is that
// item's attribute, and a one-attribute item must then carry the per-document
// range key; a contribution in several items must be their per-document
// chunks, one-attribute items at ordinals 0…n−1 split as groupLen splits.
func postingsOf(table string, items []kv.Item, budget int64) (map[contribKey]string, error) {
	type place struct {
		item, attr int
	}
	places := make(map[contribKey][]place)
	for i, it := range items {
		for j, a := range it.Attrs {
			k := contribKey{it.HashKey, a.Name}
			places[k] = append(places[k], place{i, j})
		}
	}
	out := make(map[contribKey]string, len(places))
	var errs []error
	for k, ps := range places {
		if len(ps) == 1 {
			it := items[ps[0].item]
			if len(it.Attrs) == 1 && it.RangeKey != ItemRangeKey(k.uri, table, 0) {
				errs = append(errs, fmt.Errorf("%s/%s: a pack of one of %q wants its per-document range key", k.key, it.RangeKey, k.uri))
			}
			out[k] = encodeValues(it.Attrs[ps[0].attr].Values)
			continue
		}
		byKey := make(map[string]kv.Item, len(ps))
		for _, p := range ps {
			if it := items[p.item]; len(it.Attrs) == 1 {
				byKey[it.RangeKey] = it
			}
		}
		var values [][]byte
		var groups []int
		for ordinal := range ps {
			it, ok := byKey[ItemRangeKey(k.uri, table, ordinal)]
			if !ok {
				errs = append(errs, fmt.Errorf("%s: URI %q sits in %d items that are not its chunks", k.key, k.uri, len(ps)))
				values = nil
				break
			}
			for _, v := range it.Attrs[0].Values {
				values = append(values, v)
			}
			groups = append(groups, len(it.Attrs[0].Values))
		}
		if values == nil {
			continue
		}
		if !slices.Equal(groups, chunkSplit(values, max(budget-int64(len(k.key)+len(k.uri)), 1))) {
			errs = append(errs, fmt.Errorf("%s: URI %q is split into chunks of %v values, not as the budget splits it", k.key, k.uri, groups))
		}
		out[k] = encodeValues(values)
	}
	if len(errs) > 8 {
		errs = errs[:8]
	}
	return out, errors.Join(errs...)
}

// chunkSplit returns the value counts of the items groupLen splits values
// into.
func chunkSplit(values [][]byte, avail int64) []int {
	var groups []int
	for len(values) > 0 {
		n := groupLen(values, avail)
		groups = append(groups, n)
		values = values[n:]
	}
	return groups
}

// encodeValues returns the values, each behind its length, as one string.
func encodeValues[V ~[]byte](values []V) string {
	var dst []byte
	for _, v := range values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return string(dst)
}
