package index

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cloud/kv"
	"repro/internal/idblock"
	"repro/internal/pattern"
	"repro/internal/twigjoin"
	"repro/internal/xmltree"
)

// This file holds the look-up's decode as it was before posting lists: every
// record of a key decoded into a map with one eagerly built posting per URI,
// and look-ups that intersect those maps by brute force, match paths on
// decoded path lists and join decoded identifier streams. It is the
// definition FuzzLookupAgreesWithFullDecode and the posting-list tests hold
// the look-ups to; nothing outside the tests calls it.

// refPostings is one key's postings by URI.
type refPostings map[string]*Posting

// refDecodeKey assembles one key's postings from its records, with the
// overlay's replacement items merged in by range key: a record whose only
// attribute names a replaced owner is skipped. It returns nil when there is
// no record to decode.
func refDecodeKey(recs *kv.Records, replaces map[string][]kv.Item, kind PostingKind, binaryIDs bool) (refPostings, error) {
	var repl *kv.Records
	if len(replaces) > 0 {
		repl = replacementRecords(replaces)
	}
	if recs.Tally().Items == 0 && (repl == nil || repl.Tally().Items == 0) {
		return nil, nil
	}
	d := refKeyDecoder{kind: kind, binaryIDs: binaryIDs, postings: refPostings{}}
	more := repl != nil && repl.Next()
	for recs.Next() && d.err == nil {
		for ; more && repl.RangeKey() < recs.RangeKey() && d.err == nil; more = repl.Next() {
			d.record(repl, nil)
		}
		d.record(recs, replaces)
	}
	for ; more && d.err == nil; more = repl.Next() {
		d.record(repl, nil)
	}
	if d.err != nil || !d.fed {
		return nil, d.err
	}
	if kind == IDPosting {
		for _, p := range d.postings {
			if err := finishIDPosting(p, d.segs[p], d.eager[p], d.several[p], nil); err != nil {
				return nil, err
			}
		}
	}
	return d.postings, nil
}

// refKeyDecoder is the state of one key's reference decode.
type refKeyDecoder struct {
	kind      PostingKind
	binaryIDs bool

	postings refPostings
	fed      bool
	segs     map[*Posting][]*idblock.Set
	eager    map[*Posting][]xmltree.NodeID
	several  map[*Posting]bool
	err      error
}

func (d *refKeyDecoder) record(c *kv.Records, replaces map[string][]kv.Item) {
	if replaces != nil && c.AttrCount() == 1 {
		c.NextAttr()
		if _, replaced := replaces[c.Name()]; replaced {
			return
		}
		d.fed = true
		d.attr(c)
		return
	}
	d.fed = true
	for c.NextAttr() && d.err == nil {
		d.attr(c)
	}
}

func (d *refKeyDecoder) attr(c *kv.Records) {
	name := c.Name()
	p, ok := d.postings[name]
	if !ok {
		p = &Posting{URI: name}
		d.postings[name] = p
	}
	switch d.kind {
	case PathPosting:
		for v, ok := c.NextValue(); ok; v, ok = c.NextValue() {
			if err := ValidatePathValue(v); err != nil {
				d.err = err
				return
			}
			p.PathVals = append(p.PathVals, v)
		}
	case IDPosting:
		for v, ok := c.NextValue(); ok; v, ok = c.NextValue() {
			iv, err := classifyIDValue(v, d.binaryIDs, nil)
			if err != nil {
				d.err = err
				return
			}
			first := p.n == 0 && len(d.segs[p]) == 0 && d.eager[p] == nil
			switch {
			case iv.set == nil && iv.stream == nil && iv.ids == nil:
				continue
			case iv.stream != nil && first:
				p.raw, p.n = iv.stream, iv.n
				continue
			case !first:
				if d.several == nil {
					d.several = map[*Posting]bool{}
				}
				d.several[p] = true
			}
			if d.eager == nil {
				d.eager = map[*Posting][]xmltree.NodeID{}
			}
			if p.raw != nil {
				d.eager[p] = appendEager(d.eager[p], mustDecodeStream(p.raw, p.n, nil))
				p.raw, p.n = nil, 0
			}
			switch {
			case iv.set != nil:
				if d.segs == nil {
					d.segs = map[*Posting][]*idblock.Set{}
				}
				d.segs[p] = append(d.segs[p], iv.set)
			case iv.stream != nil:
				d.eager[p] = appendEager(d.eager[p], mustDecodeStream(iv.stream, iv.n, nil))
			default:
				d.eager[p] = appendEager(d.eager[p], iv.ids)
			}
			if len(d.eager[p]) == 0 {
				delete(d.eager, p)
			}
		}
	}
}

// refPostingsBytes is the cache charge of a key's postings, by definition.
func refPostingsBytes(k cacheKey, postings refPostings) int64 {
	n := int64(len(k.table) + len(k.key) + 1)
	for uri, p := range postings {
		n += int64(len(uri) + len(p.URI))
		for _, v := range p.PathVals {
			n += int64(len(v))
		}
		n += int64(p.IDCount()) * 12
		if p.blocked != nil {
			n += p.blocked.PayloadBytes() + int64(p.blocked.Blocks())*48
		}
		n += 48
	}
	return n
}

// refApplyTombstones drops an overlay's tombstoned owners from a key's
// postings.
func refApplyTombstones(postings refPostings, ov kv.Overlay) refPostings {
	out := refPostings{}
	for owner, p := range postings {
		if !ov.Tombstones[owner] {
			out[owner] = p
		}
	}
	return out
}

// refReadKeys reads keys the way ReadKeys bills them — in chunks of the
// store's batch limit, one after another — and decodes every record of
// every key.
func refReadKeys(store kv.Store, table string, keys []string, kind PostingKind, binaryIDs bool, view ReadView) (map[string]refPostings, LookupStats, error) {
	var rs LookupStats
	var overlays map[string]kv.Overlay
	if view != nil {
		overlays = view.Capture(table, keys)
	}
	out := map[string]refPostings{}
	lim := max(store.Limits().BatchGetKeys, 1)
	for rest := keys; len(rest) > 0; {
		chunk := rest[:min(lim, len(rest))]
		rest = rest[len(chunk):]
		var derr error
		d, err := store.Read(context.Background(), table, chunk, func(k string, recs *kv.Records) {
			rs.BytesFetched += recs.Tally().Bytes
			if derr != nil {
				return
			}
			postings, err := refDecodeKey(recs, overlays[k].Replaces, kind, binaryIDs)
			if err != nil {
				derr = fmt.Errorf("key %q: %w", k, err)
				return
			}
			if postings != nil {
				out[k] = postings
			}
		})
		if err == nil {
			err = derr
		}
		if err != nil {
			return nil, rs, err
		}
		rs.GetTime += d
		rs.GetOps += int64(len(chunk))
	}
	for k, ov := range overlays {
		if p, ok := out[k]; ok && len(ov.Tombstones) > 0 {
			out[k] = refApplyTombstones(p, ov)
		}
	}
	return out, rs, nil
}

// refIntersect returns the sorted URIs every key's postings hold.
func refIntersect(postings map[string]refPostings, keys []string) []string {
	var out []string
	for uri := range postings[keys[0]] {
		every := true
		for _, k := range keys[1:] {
			if postings[k][uri] == nil {
				every = false
				break
			}
		}
		if every {
			out = append(out, uri)
		}
	}
	sort.Strings(out)
	return out
}

// refLookupPattern is LookupPattern by definition.
func refLookupPattern(store kv.Store, s Strategy, t *pattern.Tree, view ReadView) ([]string, LookupStats, error) {
	aug := augment(t)
	switch s {
	case LU:
		keys := aug.distinctKeys()
		postings, rs, err := refReadKeys(store, s.luTableName(), keys, URIPosting, false, view)
		if err != nil {
			return nil, rs, err
		}
		return refIntersect(postings, keys), rs, nil
	case LUP:
		return refLookupLUP(store, s.pathTableName(), aug, view)
	case LUI:
		return refLookupLUI(store, s.idTableName(), aug, nil, view)
	case TwoLUPI:
		r1, rs1, err := refLookupLUP(store, s.pathTableName(), aug, view)
		if err != nil {
			return nil, rs1, err
		}
		out, rs2, err := refLookupLUI(store, s.idTableName(), aug, append([]string{}, r1...), view)
		rs2.add(rs1)
		return out, rs2, err
	}
	return nil, LookupStats{}, fmt.Errorf("unknown strategy %v", s)
}

func refLookupLUP(store kv.Store, table string, aug *augmented, view ReadView) ([]string, LookupStats, error) {
	paths := aug.queryPaths()
	var keys []string
	for _, qp := range paths {
		keys = append(keys, qp[len(qp)-1].Key)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	postings, rs, err := refReadKeys(store, table, keys, PathPosting, false, view)
	if err != nil {
		return nil, rs, err
	}
	var out []string
	for _, uri := range refIntersect(postings, keys) {
		every := true
		for _, qp := range paths {
			found := false
			for _, v := range postings[qp[len(qp)-1].Key][uri].PathVals {
				decoded, err := DecodePathValue(v)
				if err != nil {
					return nil, rs, err
				}
				for _, dp := range decoded {
					found = found || MatchPath(qp, dp)
				}
			}
			if !found {
				every = false
				break
			}
		}
		if every {
			out = append(out, uri)
		}
	}
	return out, rs, nil
}

func refLookupLUI(store kv.Store, table string, aug *augmented, reduce []string, view ReadView) ([]string, LookupStats, error) {
	keys := aug.distinctKeys()
	postings, rs, err := refReadKeys(store, table, keys, IDPosting, store.Limits().SupportsBinary, view)
	if err != nil {
		return nil, rs, err
	}
	candidates := refIntersect(postings, keys)
	if reduce != nil {
		candidates = slices.DeleteFunc(candidates, func(uri string) bool { return !slices.Contains(reduce, uri) })
	}
	rs.TwigCandidates = len(candidates)
	var out []string
	for _, uri := range candidates {
		streams := twigjoin.Streams{}
		empty := false
		byKey := map[string]twigjoin.Stream{}
		for _, k := range keys {
			ids, err := postings[k][uri].IDSet().All()
			if err != nil {
				return nil, rs, err
			}
			empty = empty || len(ids) == 0
			byKey[k] = ids
		}
		if empty {
			continue
		}
		aug.tree.Walk(func(n *pattern.Node) { streams[n] = byKey[aug.keys[n]] })
		if twigjoin.Match(aug.tree, streams) {
			out = append(out, uri)
		}
	}
	return out, rs, nil
}

// allPostings builds every posting of a list, by URI: what a test that
// inspects a whole key reads.
func allPostings(l *PostingList) (map[string]*Posting, error) {
	if l == nil {
		return nil, nil
	}
	out := make(map[string]*Posting, l.Len())
	for i := 0; i < len(l.rows); i = l.runEnd(i) {
		p, _, err := l.postingAt(i, nil)
		if err != nil {
			return nil, err
		}
		out[p.URI] = p
	}
	return out, nil
}

// decodeItems runs the record decoder over items, the way a read hands it a
// key's records, and builds every posting.
func decodeItems(items []kv.Item, kind PostingKind, binaryIDs bool) (map[string]*Posting, error) {
	l, err := decodeKey(kv.ItemRecords(items), nil, kind, binaryIDs, nil, new(orderScratch))
	if err != nil {
		return nil, err
	}
	return allPostings(l)
}

// readPostings is ReadKeys with every posting of every list built, by key
// and URI.
func readPostings(store kv.Store, table string, keys []string, kind PostingKind, binaryIDs bool, opts ...LookupOptions) (map[string]map[string]*Posting, LookupStats, error) {
	lists, rs, err := ReadKeys(store, table, keys, kind, binaryIDs, opts...)
	if err != nil {
		return nil, rs, err
	}
	out := make(map[string]map[string]*Posting, len(lists))
	for k, l := range lists {
		if out[k], err = allPostings(l); err != nil {
			return nil, rs, err
		}
	}
	return out, rs, nil
}

// listOf decodes items as one key's records.
func listOf(t testing.TB, items []kv.Item, kind PostingKind, binaryIDs bool) *PostingList {
	t.Helper()
	l, err := decodeKey(kv.ItemRecords(items), nil, kind, binaryIDs, nil, new(orderScratch))
	if err != nil {
		t.Fatal(err)
	}
	return l
}
