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
// strategy. It is idempotent: deleting an unindexed document is a no-op.
// Any posting caches fronting the store must be passed so their entries for
// the touched keys are invalidated (even on error, since some items may
// already be gone).
func DeleteDocument(store kv.Store, s Strategy, doc *xmltree.Document, opts Options, caches ...*PostingCache) (time.Duration, DeleteStats, error) {
	ex := Extract(s, doc, opts)
	defer func() {
		for _, c := range caches {
			c.InvalidateExtraction(ex)
		}
	}()
	var (
		total  time.Duration
		st     DeleteStats
		doomed []string // range keys of the key's items that are the document's
	)
	collect := func(_ string, recs *kv.Records) {
		for recs.Next() {
			if recs.AttrCount() == 1 && recs.NextAttr() && recs.Name() == doc.URI {
				doomed = append(doomed, recs.RangeKey())
			}
		}
	}
	for _, table := range sortedTables(ex) {
		for _, e := range ex.Tables[table] {
			st.Keys++
			doomed = doomed[:0]
			// Removal is a write: nothing cancels it half-way.
			d, err := store.Read(context.Background(), table, []string{e.Key}, collect)
			if err != nil {
				return total, st, err
			}
			total += d
			for _, rangeKey := range doomed {
				d, err := store.DeleteItem(table, e.Key, rangeKey)
				if err != nil {
					return total, st, err
				}
				total += d
				st.ItemsDeleted++
			}
		}
	}
	return total, st, nil
}
