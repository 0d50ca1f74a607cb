package mutate

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
)

// TestOverlayMergesBetweenStoreRecords reads a key whose write-buffer
// replacements interleave with its store records: an updated document,
// whose replacement takes its stored record's place, and a new one, whose
// range keys sort between two stored records and which splits into
// several items. ReadKeys through the live overlay must give exactly the
// postings it gives once the compactor has folded the buffer into the
// store, path values in order included.
func TestOverlayMergesBetweenStoreRecords(t *testing.T) {
	store := newTestStore(t)
	c := NewCorpus(store, Options{})
	opts := index.OptionsFor(store)
	apply := func(uri, data string) {
		t.Helper()
		c.Apply(extractDoc(t, opts, uri, []byte(data)), []byte(data))
	}
	small := func(n int) string {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<x a="%d"/>`, i)
		}
		b.WriteString("</r>")
		return b.String()
	}
	apply("a.xml", small(2))
	apply("b.xml", small(3))
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}

	// The new document holds key "aa" under thousands of distinct paths, so
	// its path contribution splits into several items. Its URI is chosen so
	// that in both tables one of its items sorts between a.xml's and
	// b.xml's.
	const key = "aa"
	tables := index.TwoLUPI.Tables()
	between := func(uri string) bool {
		for _, tbl := range tables {
			lo, hi := index.ItemRangeKey("a.xml", tbl, 0), index.ItemRangeKey("b.xml", tbl, 0)
			lo, hi = min(lo, hi), max(lo, hi)
			found := false
			for ord := 0; ord < 4; ord++ {
				if rk := index.ItemRangeKey(uri, tbl, ord); lo < rk && rk < hi {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	newURI := ""
	for i := 0; newURI == ""; i++ {
		if uri := fmt.Sprintf("c-%d.xml", i); between(uri) {
			newURI = uri
		}
	}
	var big strings.Builder
	big.WriteString("<r>")
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&big, `<x%d a="1"/>`, i)
	}
	big.WriteString("</r>")
	apply(newURI, big.String())
	apply("a.xml", small(5)) // an update: a.xml's stored records are superseded

	read := func(tbl string, kind index.PostingKind) *index.PostingList {
		t.Helper()
		v := c.Pin()
		defer v.Release()
		out, _, err := index.ReadKeys(store, tbl, []string{key}, kind, opts.BinaryIDs, index.LookupOptions{View: v})
		if err != nil {
			t.Fatal(err)
		}
		return out[key]
	}
	kinds := []index.PostingKind{index.PathPosting, index.IDPosting}
	var live []*index.PostingList
	for i, tbl := range tables {
		live = append(live, read(tbl, kinds[i]))
	}
	if c.BufferedEntries() == 0 {
		t.Fatal("nothing is buffered: the reads did not go through an overlay")
	}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := c.BufferedEntries(); n != 0 {
		t.Fatalf("%d entries still buffered after the fold", n)
	}
	for i, tbl := range tables {
		folded := read(tbl, kinds[i])
		p, err := live[i].Posting(newURI)
		if err != nil || p == nil {
			t.Fatalf("%s: the new document's posting: %v, %v", tbl, p, err)
		}
		if got := len(p.PathVals); kinds[i] == index.PathPosting && got < 2 {
			t.Fatalf("%s: the new document stored %d path values under %q, want several items' worth", tbl, got, key)
		}
		samePostings(t, tbl, live[i], folded, "a.xml", "b.xml", newURI)
	}
}

// samePostings requires two reads of one key to hold exactly the given URIs
// with the same path values, in order, and the same identifiers.
func samePostings(t *testing.T, tbl string, live, folded *index.PostingList, uris ...string) {
	t.Helper()
	if live.Len() != len(uris) || folded.Len() != len(uris) {
		t.Fatalf("%s: %d URIs through the overlay, %d after the fold, want %d", tbl, live.Len(), folded.Len(), len(uris))
	}
	for _, uri := range uris {
		l, lerr := live.Posting(uri)
		f, ferr := folded.Posting(uri)
		if lerr != nil || ferr != nil || l == nil || f == nil {
			t.Fatalf("%s: %s through the overlay %v (%v), after the fold %v (%v)", tbl, uri, l, lerr, f, ferr)
		}
		if len(l.PathVals) != len(f.PathVals) {
			t.Fatalf("%s %s: %d path values through the overlay, %d after the fold", tbl, uri, len(l.PathVals), len(f.PathVals))
		}
		for j := range f.PathVals {
			if !bytes.Equal(l.PathVals[j], f.PathVals[j]) {
				t.Fatalf("%s %s: path value %d differs", tbl, uri, j)
			}
		}
		lids, lerr := l.IDSet().All()
		fids, ferr := f.IDSet().All()
		if lerr != nil || ferr != nil || l.IDCount() != f.IDCount() || !reflect.DeepEqual(lids, fids) {
			t.Fatalf("%s %s: identifiers %v (%v) through the overlay, %v (%v) after the fold", tbl, uri, lids, lerr, fids, ferr)
		}
	}
}
