package index

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// TestItemRangeKeyGolden pins the range keys to the values of the
// (document, table, ordinal) pre-image, checked against an independent
// SHA-256 of len‖uri‖len‖table‖ordinal. No store outlives its process, so
// no stored key needs migrating when the pre-image changes; the golden makes
// sure it changes only on purpose, since every write path and every reload
// must agree on it. The last URI is longer than the stack buffer.
func TestItemRangeKeyGolden(t *testing.T) {
	long := strings.Repeat("v", 300)
	golden := []struct {
		uri, table string
		ordinal    int
		want       string
	}{
		{"doc.xml", "idx_2LUPI_paths", 0, "afc201e7781aa79cb2434f39625640a1"},
		{"doc.xml", "idx_2LUPI_ids", 0, "a8a7b2198471c8ddbff37074e3d4d9b7"},
		{"doc.xml", "idx_2LUPI_ids", 1, "57abc75441cf77ef398f125c3511283f"},
		{"doc.xml", "idx_2LUPI_ids", 65536, "6a7625fba6c0f236842fa298f76b2d98"},
		{"other.xml", "idx_2LUPI_ids", 0, "7ed1ae6684ad1b820382e15c93529ea3"},
		{"xmark-000029.xml", "idx_LU_entries", 0, "01b3eb780e2d61d1ef6f01f1ec2c3b64"},
		{"xmark-000029.xml", "idx_LUP_entries", 2, "6da629cdb619079c2b804081ca417604"},
		{"", "", 0, "15ec7bf0b50732b49f8228e07d243653"},
		{"a", "bc", 0, "c0bea5595c177e969085e6db42acb94b"},
		{"ab", "c", 0, "6c14612a79101f3523d025dae2fd611b"},
		{"d", "idx_LUI_entries", 3, "2ae05e553b77555b1ae5bc824816cc54"},
		{"d" + long, "idx_LUI_entries", 7, "66071ae755bd9adcec3a36145ad9c14f"},
	}
	for _, g := range golden {
		if got := ItemRangeKey(g.uri, g.table, g.ordinal); got != g.want {
			t.Errorf("ItemRangeKey(%.20q, %q, %d) = %s, want %s", g.uri, g.table, g.ordinal, got, g.want)
		}
	}
	// appendDocItems hashes each ordinal's key once and hands the one
	// string to every item of that ordinal.
	entries := []Entry{{Key: "ename", Values: [][]byte{[]byte("ab"), []byte("cd")}}, {Key: "adesc " + long}}
	items := appendDocItems(nil, "doc.xml", "idx_2LUPI_ids", entries, int64(len("ename")+len("doc.xml"))+2)
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].RangeKey != golden[1].want || items[1].RangeKey != golden[2].want {
		t.Errorf("appendDocItems range keys %s, %s; want %s, %s", items[0].RangeKey, items[1].RangeKey, golden[1].want, golden[2].want)
	}
	if items[2].RangeKey != golden[1].want {
		t.Errorf("appendDocItems range key of the long entry %s, want %s", items[2].RangeKey, golden[1].want)
	}
	if unsafe.StringData(items[2].RangeKey) != unsafe.StringData(items[0].RangeKey) {
		t.Error("the two ordinal-0 items carry separately built range keys")
	}
	if n := testing.AllocsPerRun(100, func() { ItemRangeKey("xmark-000029.xml", "idx_2LUPI_paths", 1) }); n > 1 {
		t.Errorf("ItemRangeKey allocates %v times, want at most 1 (the returned string)", n)
	}
}

func TestItemRangeKeyDeterministicAndDistinct(t *testing.T) {
	a := ItemRangeKey("u1", "t", 0)
	if a != ItemRangeKey("u1", "t", 0) {
		t.Error("same identity, different keys")
	}
	if len(a) != 32 {
		t.Errorf("key %q has length %d, want 32 (UUID-width hex)", a, len(a))
	}
	seen := map[string]string{}
	for _, id := range [][3]string{
		{"u1", "t", "0"},
		{"u2", "t", "0"},
		{"u1", "t2", "0"},
		{"u1", "t", "1"},
		// Length prefixing keeps concatenation ambiguity out: ("ab","c")
		// and ("a","bc") must not collide.
		{"ab", "c", "0"},
		{"a", "bc", "0"},
	} {
		ord := 0
		fmt.Sscan(id[2], &ord)
		k := ItemRangeKey(id[0], id[1], ord)
		if prev, dup := seen[k]; dup {
			t.Errorf("identities %v and %s collide on %s", id, prev, k)
		}
		seen[k] = fmt.Sprint(id)
	}
	// The hash key is not part of the identity, by design: the store's
	// primary key is (hash key, range key), so the same (uri, table,
	// ordinal) under two hash keys may, and does, share one range key.
	items := appendDocItems(nil, "u1", "t", []Entry{{Key: "k"}, {Key: "k2"}}, 1<<10)
	if len(items) != 2 || items[0].RangeKey != a || items[1].RangeKey != a {
		t.Errorf("range keys of (u1, t, 0) under keys k and k2: %v, want %s for both", items, a)
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
