package index

import (
	"reflect"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func TestDeleteDocumentRemovesOnlyItsItems(t *testing.T) {
	for _, s := range All() {
		store := dynamodb.New(meter.NewLedger())
		if err := CreateTables(store, s); err != nil {
			t.Fatal(err)
		}
		opts := OptionsFor(store)
		docs := xmark.Paintings()
		for _, gd := range docs {
			d := parseDoc(t, gd.URI, string(gd.Data))
			if _, _, err := LoadDocument(store, s, d, opts); err != nil {
				t.Fatal(err)
			}
		}
		itemsBefore := int64(0)
		for _, tbl := range s.Tables() {
			itemsBefore += store.ItemCount(tbl)
		}

		// Remove delacroix.xml; "The Lion Hunt Fragment" remains.
		victim := parseDoc(t, "delacroix.xml", xmark.DelacroixXML)
		_, st, err := DeleteDocument(store, s, victim, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if st.ItemsDeleted == 0 {
			t.Fatalf("%s: nothing deleted", s.Name())
		}
		itemsAfter := int64(0)
		for _, tbl := range s.Tables() {
			itemsAfter += store.ItemCount(tbl)
		}
		if itemsAfter != itemsBefore-int64(st.ItemsDeleted) {
			t.Errorf("%s: items %d -> %d but deleted %d", s.Name(), itemsBefore, itemsAfter, st.ItemsDeleted)
		}

		q := pattern.MustParse(`//painting[/name~"Lion"]`).Patterns[0]
		uris, _, err := LookupPattern(store, s, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(uris, []string{"painting-1861-1.xml"}) {
			t.Errorf("%s: lookup after delete = %v", s.Name(), uris)
		}

		// Idempotent: deleting again removes nothing.
		_, st2, err := DeleteDocument(store, s, victim, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st2.ItemsDeleted != 0 {
			t.Errorf("%s: second delete removed %d items", s.Name(), st2.ItemsDeleted)
		}
	}
}

func TestDeleteItemAccounting(t *testing.T) {
	store := dynamodb.New(meter.NewLedger())
	store.CreateTable("t")
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	if err := CreateTables(store, LU); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDocument(store, LU, d, OptionsFor(store)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DeleteDocument(store, LU, d, OptionsFor(store)); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range LU.Tables() {
		if got := store.ItemCount(tbl); got != 0 {
			t.Errorf("%s: %d items left", tbl, got)
		}
		if got := store.TableBytes(tbl); got != 0 {
			t.Errorf("%s: %d bytes left", tbl, got)
		}
		if got := store.OverheadBytes(tbl); got != 0 {
			t.Errorf("%s: %d overhead bytes left", tbl, got)
		}
	}
}

// A removal reads the document's keys BatchGetKeys at a time and deletes
// its items BatchPutItems at a time: per table ⌈keys/100⌉ gets and
// ⌈items/25⌉ write requests, with one read unit per key and one write unit
// per item. A second removal reads as much and deletes nothing.
func TestDeleteDocumentBatchesRequests(t *testing.T) {
	cfg := xmark.DefaultConfig(3)
	cfg.TargetDocBytes = 16 << 10
	ceil := func(n int64, per int) int64 { return (n + int64(per) - 1) / int64(per) }
	for _, s := range All() {
		led := meter.NewLedger()
		store := dynamodb.New(led)
		if err := CreateTables(store, s); err != nil {
			t.Fatal(err)
		}
		opts := OptionsFor(store)
		var victim *xmltree.Document
		for i := 0; i < cfg.Docs; i++ {
			gd := xmark.GenerateDoc(cfg, i)
			d := parseDoc(t, gd.URI, string(gd.Data))
			if _, _, err := LoadDocument(store, s, d, opts); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				victim = d
			}
		}
		lim := store.Limits()
		var wantGets, keys, maxKeys int64
		for _, es := range Extract(s, victim, opts).Tables {
			n := int64(len(es))
			wantGets += ceil(n, lim.BatchGetKeys)
			keys += n
			maxKeys = max(maxKeys, n)
		}
		before := map[string]int64{}
		for _, tbl := range s.Tables() {
			before[tbl] = store.ItemCount(tbl)
		}
		// remove returns one removal's stats and the gets and write
		// requests the ledger billed it.
		remove := func() (DeleteStats, meter.Counts, meter.Counts) {
			t.Helper()
			usage := led.Snapshot()
			_, st, err := DeleteDocument(store, s, victim, opts)
			if err != nil {
				t.Fatal(err)
			}
			diff := led.Snapshot().Sub(usage)
			return st, diff.Get("dynamodb", "get"), diff.Get("dynamodb", "put")
		}

		st, get, put := remove()
		var wantPuts, items, maxItems int64
		for _, tbl := range s.Tables() {
			n := before[tbl] - store.ItemCount(tbl)
			wantPuts += ceil(n, lim.BatchPutItems)
			items += n
			maxItems = max(maxItems, n)
		}
		if maxKeys <= int64(lim.BatchGetKeys) || maxItems <= int64(lim.BatchPutItems) {
			t.Fatalf("%s: largest table has %d keys and %d items: no batch splits", s.Name(), maxKeys, maxItems)
		}
		if st.Keys != int(keys) || int64(st.ItemsDeleted) != items {
			t.Errorf("%s: stats %+v, want %d keys and %d items", s.Name(), st, keys, items)
		}
		if get != (meter.Counts{Calls: wantGets, Units: keys, Bytes: get.Bytes}) {
			t.Errorf("%s: gets %+v, want %d calls of %d keys", s.Name(), get, wantGets, keys)
		}
		if put != (meter.Counts{Calls: wantPuts, Units: items, Bytes: put.Bytes}) {
			t.Errorf("%s: write requests %+v, want %d calls of %d items", s.Name(), put, wantPuts, items)
		}

		// Idempotent: the second removal reads every key again and deletes
		// nothing.
		st, get2, put := remove()
		if st.ItemsDeleted != 0 || get2.Calls != get.Calls || get2.Units != get.Units || put != (meter.Counts{}) {
			t.Errorf("%s: second removal deleted %d items in %+v after %+v of gets, want none after %+v",
				s.Name(), st.ItemsDeleted, put, get2, get)
		}
	}
}
