package index

import (
	"context"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/xmltree"
)

// Document removal — an extension beyond the paper, whose warehouse is
// append-only. The mapping of Section 6 makes removal possible without any
// auxiliary structure: every index item names its documents' URIs as its
// attributes, so the document's postings under key k are the attributes of
// k's items named URI(d). Removal re-extracts I(d) from the document (the
// caller fetches it from the file store before dropping it there), reads
// its keys, deletes the items whose one attribute it is, and rewrites each
// bulk pack it is a member of without it (DESIGN §7.5).

// DeleteStats summarizes one document's index removal.
type DeleteStats struct {
	Keys           int // index keys visited
	ItemsDeleted   int
	ItemsRewritten int // packs put again without the document
}

// DeleteDocument removes the document's postings under the strategy. Per
// table it reads the document's keys Limits().BatchGetKeys at a time. It
// puts the remainder of every pack the document is a member of under the
// range key of the remainder's first member, then deletes the document's
// one-attribute items and the packs whose range key changed, puts and
// deletes Limits().BatchPutItems at a time: a removal cut short after the
// puts leaves a member in two items, which reads tolerate, never one lost.
// It is idempotent: deleting an unindexed document is a no-op. Any posting
// caches fronting the store must be passed so their entries for the
// touched keys are invalidated (even on error, since some items may
// already be gone).
func DeleteDocument(store kv.Store, s Strategy, doc *xmltree.Document, opts Options, caches ...*PostingCache) (time.Duration, DeleteStats, error) {
	ex := Extract(s, doc, opts)
	defer func() {
		for _, c := range caches {
			c.InvalidateExtraction(ex)
		}
	}()
	lim := store.Limits()
	getLim, writeLim := max(lim.BatchGetKeys, 1), max(lim.BatchPutItems, 1)
	var (
		total  time.Duration
		st     DeleteStats
		table  string
		keys   []string
		doomed []kv.Key  // the table's items to delete
		rest   []kv.Item // the table's packs without the document
	)
	collect := func(hashKey string, recs *kv.Records) {
		for recs.Next() {
			if recs.AttrCount() == 1 {
				if recs.NextAttr() && recs.Name() == doc.URI {
					doomed = append(doomed, kv.Key{HashKey: hashKey, RangeKey: recs.RangeKey()})
				}
				continue
			}
			rangeKey := recs.RangeKey()
			attrs := make([]kv.Attr, 0, recs.AttrCount())
			member := false
			for recs.NextAttr() {
				if recs.Name() == doc.URI {
					member = true
					continue
				}
				a := kv.Attr{Name: recs.Name()}
				for v, ok := recs.NextValue(); ok; v, ok = recs.NextValue() {
					a.Values = append(a.Values, v)
				}
				attrs = append(attrs, a)
			}
			if !member {
				continue
			}
			it := kv.Item{HashKey: hashKey, RangeKey: packRangeKey(attrs[0].Name, table, len(attrs)), Attrs: attrs}
			rest = append(rest, it)
			if it.RangeKey != rangeKey {
				doomed = append(doomed, kv.Key{HashKey: hashKey, RangeKey: rangeKey})
			}
		}
	}
	for _, table = range sortedTables(ex) {
		keys, doomed, rest = keys[:0], doomed[:0], rest[:0]
		for _, e := range ex.Tables[table] {
			keys = append(keys, e.Key)
		}
		st.Keys += len(keys)
		for todo := keys; len(todo) > 0; {
			n := min(getLim, len(todo))
			// Removal is a write: nothing cancels it half-way.
			d, err := store.Read(context.Background(), table, todo[:n], collect)
			if err != nil {
				return total, st, err
			}
			total += d
			todo = todo[n:]
		}
		for todo := rest; len(todo) > 0; {
			n := min(writeLim, len(todo))
			d, err := store.BatchPut(table, todo[:n])
			if err != nil {
				return total, st, err
			}
			total += d
			st.ItemsRewritten += n
			todo = todo[n:]
		}
		for todo := doomed; len(todo) > 0; {
			n := min(writeLim, len(todo))
			d, err := store.BatchDelete(table, todo[:n])
			if err != nil {
				return total, st, err
			}
			total += d
			st.ItemsDeleted += n
			todo = todo[n:]
		}
	}
	return total, st, nil
}
