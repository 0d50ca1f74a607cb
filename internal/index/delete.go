package index

import (
	"context"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/xmltree"
)

// Document removal — an extension beyond the paper, whose warehouse is
// append-only. The mapping of Section 6 makes removal possible without any
// auxiliary structure: every index item stores its document's URI as the
// attribute name, so the items of a document d under key k are exactly the
// items with hash key k whose attribute is URI(d). Removal re-extracts
// I(d) from the document (the caller fetches it from the file store before
// dropping it there), then deletes those items by full primary key.

// DeleteStats summarizes one document's index removal.
type DeleteStats struct {
	Keys         int // index keys visited
	ItemsDeleted int
}

// DeleteDocument removes every index item of the document under the
// strategy. Per table it reads the document's keys Limits().BatchGetKeys
// at a time and deletes the items found Limits().BatchPutItems at a time.
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
	getLim, delLim := max(lim.BatchGetKeys, 1), max(lim.BatchPutItems, 1)
	var (
		total  time.Duration
		st     DeleteStats
		keys   []string
		doomed []kv.Key // the table's items that are the document's
	)
	// An item is the document's when its one attribute is named by the
	// document's URI, whatever its ordinal.
	collect := func(hashKey string, recs *kv.Records) {
		for recs.Next() {
			if recs.AttrCount() == 1 && recs.NextAttr() && recs.Name() == doc.URI {
				doomed = append(doomed, kv.Key{HashKey: hashKey, RangeKey: recs.RangeKey()})
			}
		}
	}
	for _, table := range sortedTables(ex) {
		keys, doomed = keys[:0], doomed[:0]
		for _, e := range ex.Tables[table] {
			keys = append(keys, e.Key)
		}
		st.Keys += len(keys)
		for rest := keys; len(rest) > 0; {
			n := min(getLim, len(rest))
			// Removal is a write: nothing cancels it half-way.
			d, err := store.Read(context.Background(), table, rest[:n], collect)
			if err != nil {
				return total, st, err
			}
			total += d
			rest = rest[n:]
		}
		for rest := doomed; len(rest) > 0; {
			n := min(delLim, len(rest))
			d, err := store.BatchDelete(table, rest[:n])
			if err != nil {
				return total, st, err
			}
			total += d
			st.ItemsDeleted += n
			rest = rest[n:]
		}
	}
	return total, st, nil
}
