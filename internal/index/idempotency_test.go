package index

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// TestItemRangeKeyGolden pins the range keys to the values the streaming
// SHA-256 of the original implementation gave: a store written before the
// one-buffer rewrite must be overwritten, not duplicated, by a re-index
// after it. The last key is longer than the stack buffer.
func TestItemRangeKeyGolden(t *testing.T) {
	long := strings.Repeat("v", 300)
	golden := []struct {
		uri, table, key string
		ordinal         int
		want            string
	}{
		{"doc.xml", "idx_2LUPI_paths", "ename", 0, "b75f57bf05e4e8512bce3a85b1bd3b47"},
		{"doc.xml", "idx_2LUPI_ids", "ename", 0, "d3e5e7920f2ea545bdcf349c5ad0723c"},
		{"doc.xml", "idx_2LUPI_ids", "ename", 1, "a9be48411106cc5b7b70b47c6bfcccc6"},
		{"doc.xml", "idx_2LUPI_ids", "ename", 65536, "aa4a2f986d7965a495c06dd7b9fb43a1"},
		{"other.xml", "idx_2LUPI_ids", "ename", 0, "df160ee71c3c372f197154d3dc057f06"},
		{"xmark-000029.xml", "idx_LU_entries", "aid item29", 0, "44bd9c01421eee0dd2ced430a031b4c3"},
		{"xmark-000029.xml", "idx_LUP_entries", "wnaïve", 2, "c34db5fc3453538d1bfcce780be78314"},
		{"", "", "", 0, "374708fff7719dd5979ec875d56cd228"},
		{"a", "bc", "", 0, "4204543ad59e75a59d3fa95517664edd"},
		{"ab", "c", "", 0, "1c3f8754d58ed7595901b4b0c8ac1313"},
		{"d", "idx_LUI_entries", "adate 07/04/2026", 3, "9152c675a7a546bd61306013e07e0294"},
		{"d", "idx_LUI_entries", "adesc " + long, 7, "63c055e8e0e3e71255dd5205ef979c9b"},
	}
	for _, g := range golden {
		if got := ItemRangeKey(g.uri, g.table, g.key, g.ordinal); got != g.want {
			t.Errorf("ItemRangeKey(%q, %q, %.20q, %d) = %s, want %s", g.uri, g.table, g.key, g.ordinal, got, g.want)
		}
	}
	// tableItems hashes out of a buffer it reuses from item to item.
	entries := []Entry{{Key: "ename", Values: [][]byte{[]byte("ab"), []byte("cd")}}, {Key: "adesc " + long}}
	items := tableItems("doc.xml", "idx_2LUPI_ids", entries, int64(len("ename")+len("doc.xml"))+2)
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].RangeKey != golden[1].want || items[1].RangeKey != golden[2].want {
		t.Errorf("tableItems range keys %s, %s; want %s, %s", items[0].RangeKey, items[1].RangeKey, golden[1].want, golden[2].want)
	}
	if want := ItemRangeKey("doc.xml", "idx_2LUPI_ids", entries[1].Key, 0); items[2].RangeKey != want {
		t.Errorf("tableItems range key of the long entry %s, want %s", items[2].RangeKey, want)
	}
	if n := testing.AllocsPerRun(100, func() { ItemRangeKey("xmark-000029.xml", "idx_2LUPI_paths", "aid item29", 1) }); n > 1 {
		t.Errorf("ItemRangeKey allocates %v times, want at most 1 (the returned string)", n)
	}
}

func TestItemRangeKeyDeterministicAndDistinct(t *testing.T) {
	a := ItemRangeKey("u1", "t", "k", 0)
	if a != ItemRangeKey("u1", "t", "k", 0) {
		t.Error("same identity, different keys")
	}
	if len(a) != 32 {
		t.Errorf("key %q has length %d, want 32 (UUID-width hex)", a, len(a))
	}
	seen := map[string]string{}
	for _, id := range [][4]string{
		{"u1", "t", "k", "0"},
		{"u2", "t", "k", "0"},
		{"u1", "t2", "k", "0"},
		{"u1", "t", "k2", "0"},
		{"u1", "t", "k", "1"},
		// Length prefixing keeps concatenation ambiguity out: ("ab","c")
		// and ("a","bc") must not collide.
		{"ab", "c", "k", "0"},
		{"a", "bc", "k", "0"},
	} {
		ord := 0
		fmt.Sscan(id[3], &ord)
		k := ItemRangeKey(id[0], id[1], id[2], ord)
		if prev, dup := seen[k]; dup {
			t.Errorf("identities %v and %s collide on %s", id, prev, k)
		}
		seen[k] = fmt.Sprint(id)
	}
}

// Reloading a document — what a crashed worker's redelivered task does —
// must leave the store byte-identical to a single load: deterministic range
// keys turn the re-put into an overwrite.
func TestReloadIsIdempotent(t *testing.T) {
	docs := xmark.Paintings()
	for _, s := range []Strategy{LU, LUP, LUI, TwoLUPI} {
		store := dynamodb.New(meter.NewLedger())
		if err := CreateTables(store, s); err != nil {
			t.Fatal(err)
		}
		opts := OptionsFor(store)
		var parsed []*xmltree.Document
		for _, gd := range docs {
			d, err := xmltree.Parse(gd.URI, gd.Data)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, d)
			if _, _, err := LoadDocument(store, s, d, opts); err != nil {
				t.Fatal(err)
			}
		}
		counts := map[string]int64{}
		for _, tbl := range s.Tables() {
			counts[tbl] = store.ItemCount(tbl)
		}
		// Load every document again, twice.
		for i := 0; i < 2; i++ {
			for _, d := range parsed {
				if _, _, err := LoadDocument(store, s, d, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tbl := range s.Tables() {
			if got := store.ItemCount(tbl); got != counts[tbl] {
				t.Errorf("%s/%s: %d items after reload, want %d (duplicates)", s.Name(), tbl, got, counts[tbl])
			}
			for _, it := range store.DumpTable(tbl) {
				if len(it.Attrs) != 1 {
					t.Errorf("%s/%s item %s/%s has %d attrs, want 1", s.Name(), tbl, it.HashKey, it.RangeKey, len(it.Attrs))
				}
			}
		}
	}
}

// The text-only SimpleDB path must stay idempotent too.
func TestReloadIsIdempotentOnSimpleDB(t *testing.T) {
	store := simpledb.New(meter.NewLedger())
	if err := CreateTables(store, LUP); err != nil {
		t.Fatal(err)
	}
	opts := OptionsFor(store)
	gd := xmark.Paintings()[0]
	d, err := xmltree.Parse(gd.URI, gd.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDocument(store, LUP, d, opts); err != nil {
		t.Fatal(err)
	}
	before := store.ItemCount(LUP.Tables()[0])
	if _, _, err := LoadDocument(store, LUP, d, opts); err != nil {
		t.Fatal(err)
	}
	if got := store.ItemCount(LUP.Tables()[0]); got != before {
		t.Errorf("items after reload = %d, want %d", got, before)
	}
}
