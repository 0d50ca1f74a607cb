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

// TestDeleteDocumentFromPacks removes a document from a bulk-loaded store:
// its one-attribute items are deleted, every pack it is a member of is put
// again without it under the range key of the remainder's first member, and
// the old pack is deleted when that key changed. The ledger must show
// exactly ⌈keys/100⌉ gets of the document's keys, and write requests of
// exactly those puts and deletes, 25 a request. The store must then hold
// the postings of a clean build without the document, and re-adding it in
// a new commit must give the postings of a clean build with it.
func TestDeleteDocumentFromPacks(t *testing.T) {
	cfg := xmark.DefaultConfig(6)
	cfg.TargetDocBytes = 8 << 10
	var gds []xmark.Doc
	for i := 0; i < cfg.Docs; i++ {
		gds = append(gds, xmark.GenerateDoc(cfg, i))
	}
	ceil := func(n, per int) int64 { return int64((n + per - 1) / per) }
	for _, s := range All() {
		for _, victimAt := range []int{0, 3} {
			led := meter.NewLedger()
			store := dynamodb.New(led)
			if err := CreateTables(store, s); err != nil {
				t.Fatal(err)
			}
			without, with := newStore(t, s), newStore(t, s)
			exs := extractCorpus(t, s, store, gds)
			victim := exs[victimAt]
			var others []*Extraction
			for i, ex := range exs {
				if i != victimAt {
					others = append(others, ex)
				}
			}
			bulkLoad(t, store, exs)
			bulkLoad(t, without, others)
			for _, ex := range exs {
				if _, _, err := WriteExtraction(with, ex); err != nil {
					t.Fatal(err)
				}
			}

			lim := store.Limits()
			var wantGets, wantKeys, wantWrites, wantRows int64
			var wantSt DeleteStats
			for _, tbl := range s.Tables() {
				mine := map[string]bool{}
				for _, e := range victim.Tables[tbl] {
					mine[e.Key] = true
				}
				wantGets += ceil(len(mine), lim.BatchGetKeys)
				wantKeys += int64(len(mine))
				wantSt.Keys += len(mine)
				puts, dels := 0, 0
				for _, it := range store.DumpTable(tbl) {
					if !mine[it.HashKey] {
						continue
					}
					var rest []string
					member := false
					for _, a := range it.Attrs {
						if a.Name == victim.URI {
							member = true
						} else {
							rest = append(rest, a.Name)
						}
					}
					switch {
					case !member:
					case len(rest) == 0:
						dels++
					default:
						puts++
						if len(rest) == 1 || rest[0] != it.Attrs[0].Name {
							dels++ // the remainder's range key differs
						}
					}
				}
				wantSt.ItemsDeleted += dels
				wantSt.ItemsRewritten += puts
				wantWrites += ceil(puts, lim.BatchPutItems) + ceil(dels, lim.BatchPutItems)
				wantRows += int64(puts + dels)
			}
			if wantSt.ItemsRewritten == 0 {
				t.Fatalf("%s: the victim is a member of no pack", s.Name())
			}

			before := led.Snapshot()
			d := parseDoc(t, gds[victimAt].URI, string(gds[victimAt].Data))
			_, st, err := DeleteDocument(store, s, d, OptionsFor(store))
			if err != nil {
				t.Fatal(err)
			}
			diff := led.Snapshot().Sub(before)
			get, put := diff.Get("dynamodb", "get"), diff.Get("dynamodb", "put")
			if st != wantSt {
				t.Errorf("%s, victim %d: stats %+v, want %+v", s.Name(), victimAt, st, wantSt)
			}
			if get.Calls != wantGets || get.Units != wantKeys {
				t.Errorf("%s, victim %d: gets %+v, want %d calls of %d keys", s.Name(), victimAt, get, wantGets, wantKeys)
			}
			if put.Calls != wantWrites || put.Units != wantRows {
				t.Errorf("%s, victim %d: write requests %+v, want %d calls of %d rows", s.Name(), victimAt, put, wantWrites, wantRows)
			}
			checkLayout(t, s, store, without)

			bulkLoad(t, store, []*Extraction{victim})
			checkLayout(t, s, store, with)
		}
	}
}
