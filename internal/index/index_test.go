package index

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func parseDoc(t *testing.T, uri, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.Parse(uri, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKeyEncoding(t *testing.T) {
	if ElementKey("name") != "ename" {
		t.Error("element key")
	}
	if AttrNameKey("id") != "aid" {
		t.Error("attr name key")
	}
	if AttrValueKey("id", "1863-1") != "aid 1863-1" {
		t.Error("attr value key")
	}
	if WordKey("Olympia") != "wOlympia" {
		t.Error("word key")
	}
}

func TestNodeKeysFigure3(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	keys := map[string]bool{}
	for _, n := range d.Nodes() {
		for _, k := range NodeKeys(n) {
			keys[k] = true
		}
	}
	for _, want := range []string{"ename", "aid", "aid 1863-1", "wOlympia", "epainting", "wManet"} {
		if !keys[want] {
			t.Errorf("missing key %q", want)
		}
	}
}

func TestPathOfFigure4(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	// The Olympia text node's word path.
	name := d.NodesByLabel("name")[0]
	olympia := name.Children[0]
	if got := PathOf(olympia, WordKey("Olympia")); got != "/epainting/ename/wOlympia" {
		t.Errorf("word path = %q", got)
	}
	id := d.NodesByLabel("id")[0]
	if got := PathOf(id, AttrValueKey("id", "1863-1")); got != "/epainting/aid 1863-1" {
		t.Errorf("attr value path = %q", got)
	}
	painterName := d.NodesByLabel("name")[1]
	if got := PathOf(painterName, ElementKey("name")); got != "/epainting/epainter/ename" {
		t.Errorf("element path = %q", got)
	}
}

func TestMatchPath(t *testing.T) {
	steps := func(s string) []QueryStep {
		var out []QueryStep
		for s != "" {
			axis := pattern.Child
			if strings.HasPrefix(s, "//") {
				axis = pattern.Descendant
				s = s[2:]
			} else {
				s = s[1:]
			}
			end := len(s)
			if i := strings.IndexAny(s, "/"); i >= 0 {
				end = i
			}
			out = append(out, QueryStep{Axis: axis, Key: s[:end]})
			s = s[end:]
		}
		return out
	}
	cases := []struct {
		query  string
		stored string
		want   bool
	}{
		{"//epainting/ename", "/epainting/ename", true},
		{"//epainting/ename", "/epainting/epainter/ename", false},
		{"//epainting//ename", "/epainting/epainter/ename", true},
		{"/epainting/ename", "/epainting/ename", true},
		{"/ename", "/epainting/ename", false},
		{"//ename", "/epainting/ename", true},
		{"//ename", "/epainting/ename/wOlympia", false}, // must end at key
		{"//epainting//ename/wOlympia", "/epainting/ename/wOlympia", true},
		{"//esite//ename", "/esite/eregions/eitem/ename", true},
		{"//esite/ename", "/esite/eregions/eitem/ename", false},
	}
	for _, c := range cases {
		if got := MatchPath(steps(c.query), c.stored); got != c.want {
			t.Errorf("MatchPath(%q, %q) = %v, want %v", c.query, c.stored, got, c.want)
		}
	}
}

func TestEscapedPathComponents(t *testing.T) {
	d := parseDoc(t, "d.xml", `<a date="07/04/2026"/>`)
	attr := d.NodesByLabel("date")[0]
	key := AttrValueKey("date", "07/04/2026")
	stored := PathOf(attr, key)
	if strings.Count(stored, "/") != 2 {
		t.Errorf("slash in key not escaped: %q", stored)
	}
	if !MatchPath([]QueryStep{
		{Axis: pattern.Descendant, Key: "ea"},
		{Axis: pattern.Child, Key: key},
	}, stored) {
		t.Errorf("escaped path %q does not match its own query path", stored)
	}
}

func TestIDCodecsRoundTrip(t *testing.T) {
	ids := []xmltree.NodeID{{Pre: 1, Post: 10, Depth: 1}, {Pre: 3, Post: 3, Depth: 2}, {Pre: 6, Post: 8, Depth: 3}, {Pre: 100000, Post: 99999, Depth: 15}}
	for _, binary := range []bool{true, false} {
		blobs := EncodeIDs(ids, binary, 0)
		var got []xmltree.NodeID
		for _, b := range blobs {
			part, err := DecodeIDs(b, binary)
			if err != nil {
				t.Fatalf("binary=%v: %v", binary, err)
			}
			got = append(got, part...)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Errorf("binary=%v round trip = %v", binary, got)
		}
	}
}

func TestIDCodecSplitsAtBudget(t *testing.T) {
	var ids []xmltree.NodeID
	for i := int32(1); i <= 1000; i++ {
		ids = append(ids, xmltree.NodeID{Pre: i * 2, Post: i, Depth: 3})
	}
	blobs := EncodeIDsBinary(ids, 64)
	if len(blobs) < 2 {
		t.Fatalf("expected splitting, got %d blobs", len(blobs))
	}
	var got []xmltree.NodeID
	for _, b := range blobs {
		if len(b) > 64 {
			t.Errorf("blob of %d bytes exceeds budget", len(b))
		}
		part, err := DecodeIDsBinary(b)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, part...)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Error("split blobs do not reassemble")
	}
	texts := EncodeIDsText(ids, 64)
	for _, v := range texts {
		if len(v) > 64 {
			t.Errorf("text value of %d bytes exceeds budget", len(v))
		}
	}
}

func TestIDCodecProperty(t *testing.T) {
	f := func(raw []uint16, budgetSeed uint8) bool {
		ids := make([]xmltree.NodeID, len(raw))
		pre := int32(0)
		for i, r := range raw {
			pre += int32(r%100) + 1
			ids[i] = xmltree.NodeID{Pre: pre, Post: int32(r), Depth: int32(r%20) + 1}
		}
		budget := int(budgetSeed)%200 + 16
		for _, binary := range []bool{true, false} {
			var got []xmltree.NodeID
			for _, b := range EncodeIDs(ids, binary, budget) {
				part, err := DecodeIDs(b, binary)
				if err != nil {
					return false
				}
				got = append(got, part...)
			}
			if len(got) != len(ids) {
				return false
			}
			for i := range ids {
				if got[i] != ids[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCorruptIDBlobs(t *testing.T) {
	if _, err := DecodeIDsBinary([]byte{0xff}); err == nil {
		t.Error("truncated varint accepted")
	}
	for _, bad := range []string{"3,3,2", "(3,3)", "(a,b,c)", "(1,2,3"} {
		if _, err := DecodeIDsText([]byte(bad)); err == nil {
			t.Errorf("bad text %q accepted", bad)
		}
	}
}

func TestExtractLU(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	ex := Extract(LU, d, DefaultOptions())
	entries := ex.Tables[LU.TableName(flatTable)]
	if len(entries) == 0 {
		t.Fatal("no LU entries")
	}
	byKey := map[string][][]byte{}
	for _, e := range entries {
		byKey[e.Key] = e.Values
	}
	for _, k := range []string{"ename", "aid", "aid 1863-1", "wOlympia"} {
		vs, ok := byKey[k]
		if !ok {
			t.Errorf("missing entry %q", k)
			continue
		}
		if len(vs) != 1 || len(vs[0]) != 0 {
			t.Errorf("LU entry %q has values %v, want single ε", k, vs)
		}
	}
}

func TestExtractLUPMatchesFigure4(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	ex := Extract(LUP, d, DefaultOptions())
	entries := ex.Tables[LUP.TableName(flatTable)]
	byKey := map[string][]string{}
	for _, e := range entries {
		for _, v := range e.Values {
			byKey[e.Key] = append(byKey[e.Key], string(v))
		}
	}
	wantName := []string{"/epainting/ename", "/epainting/epainter/ename"}
	if !reflect.DeepEqual(byKey["ename"], wantName) {
		t.Errorf("ename paths = %v, want %v", byKey["ename"], wantName)
	}
	if !reflect.DeepEqual(byKey["aid 1863-1"], []string{"/epainting/aid 1863-1"}) {
		t.Errorf("aid value paths = %v", byKey["aid 1863-1"])
	}
	if !reflect.DeepEqual(byKey["wOlympia"], []string{"/epainting/ename/wOlympia"}) {
		t.Errorf("wOlympia paths = %v", byKey["wOlympia"])
	}
}

func TestExtractLUIMatchesFigure4(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	ex := Extract(LUI, d, DefaultOptions())
	entries := ex.Tables[LUI.TableName(flatTable)]
	byKey := map[string][]xmltree.NodeID{}
	for _, e := range entries {
		for _, v := range e.Values {
			ids, err := DecodeIDsBinary(v)
			if err != nil {
				t.Fatal(err)
			}
			byKey[e.Key] = append(byKey[e.Key], ids...)
		}
	}
	wantName := []xmltree.NodeID{{Pre: 3, Post: 3, Depth: 2}, {Pre: 6, Post: 8, Depth: 3}}
	if !reflect.DeepEqual(byKey["ename"], wantName) {
		t.Errorf("ename IDs = %v, want %v", byKey["ename"], wantName)
	}
	if !reflect.DeepEqual(byKey["aid"], []xmltree.NodeID{{Pre: 2, Post: 1, Depth: 2}}) {
		t.Errorf("aid IDs = %v", byKey["aid"])
	}
	if !reflect.DeepEqual(byKey["wOlympia"], []xmltree.NodeID{{Pre: 4, Post: 2, Depth: 3}}) {
		t.Errorf("wOlympia IDs = %v", byKey["wOlympia"])
	}
}

func TestExtract2LUPIHasBothTables(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	ex := Extract(TwoLUPI, d, DefaultOptions())
	if len(ex.Tables[TwoLUPI.TableName(pathTable)]) == 0 {
		t.Error("2LUPI missing path entries")
	}
	if len(ex.Tables[TwoLUPI.TableName(idTable)]) == 0 {
		t.Error("2LUPI missing id entries")
	}
	lup := Extract(LUP, d, DefaultOptions())
	if ex.Entries != 2*lup.Entries {
		t.Errorf("2LUPI entries = %d, want twice LUP's %d", ex.Entries, lup.Entries)
	}
}

func TestExtractSkipWords(t *testing.T) {
	d := parseDoc(t, "manet.xml", xmark.ManetXML)
	full := Extract(LUP, d, DefaultOptions())
	opts := DefaultOptions()
	opts.SkipWords = true
	slim := Extract(LUP, d, opts)
	if slim.Bytes >= full.Bytes {
		t.Errorf("keyword-free index (%d B) not smaller than full-text (%d B)", slim.Bytes, full.Bytes)
	}
	for _, e := range slim.Tables[LUP.TableName(flatTable)] {
		if strings.HasPrefix(e.Key, "w") && !strings.HasPrefix(e.Key, "e") {
			t.Errorf("word key %q present despite SkipWords", e.Key)
		}
	}
}

func TestIndexSizeOrderingLU_LUI_LUP_2LUPI(t *testing.T) {
	// Figure 8's shape: LU < LUI < LUP < 2LUPI (IDs are more compact than
	// paths; 2LUPI stores both).
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 8 << 10
	sizes := map[Strategy]int64{}
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d := parseDoc(t, gd.URI, string(gd.Data))
		for _, s := range All() {
			sizes[s] += Extract(s, d, DefaultOptions()).Bytes
		}
	}
	if !(sizes[LU] < sizes[LUI] && sizes[LUI] < sizes[LUP] && sizes[LUP] < sizes[TwoLUPI]) {
		t.Errorf("size ordering violated: LU=%d LUI=%d LUP=%d 2LUPI=%d",
			sizes[LU], sizes[LUI], sizes[LUP], sizes[TwoLUPI])
	}
}

func newStore(t *testing.T, s Strategy) kv.Store {
	t.Helper()
	store := dynamodb.New(meter.NewLedger())
	if err := CreateTables(store, s); err != nil {
		t.Fatal(err)
	}
	return store
}

func loadCorpus(t *testing.T, store kv.Store, s Strategy, docs []xmark.Doc) {
	t.Helper()
	opts := OptionsFor(store)
	for _, gd := range docs {
		d := parseDoc(t, gd.URI, string(gd.Data))
		if _, _, err := LoadDocument(store, s, d, opts); err != nil {
			t.Fatalf("loading %s: %v", gd.URI, err)
		}
	}
}

func TestStorageRoundTrip(t *testing.T) {
	store := newStore(t, LUI)
	loadCorpus(t, store, LUI, xmark.Paintings()[:2])
	byKey, _, err := ReadKeys(store, LUI.TableName(flatTable), []string{"ename"}, IDPosting, true)
	if err != nil {
		t.Fatal(err)
	}
	postings := byKey["ename"]
	if len(postings) != 2 {
		t.Fatalf("postings for ename = %v", postings)
	}
	manet := postings["manet.xml"]
	want := []xmltree.NodeID{{Pre: 3, Post: 3, Depth: 2}, {Pre: 6, Post: 8, Depth: 3}}
	if !reflect.DeepEqual(manet.IDs, want) {
		t.Errorf("manet ename IDs = %v, want %v", manet.IDs, want)
	}
}

func TestStorageSplitsOversizedEntries(t *testing.T) {
	// A document with one huge text node forces the word-key entry values
	// over the item budget on SimpleDB (1 KB values).
	var b strings.Builder
	b.WriteString("<a><t>")
	for i := 0; i < 500; i++ {
		b.WriteString(" common")
	}
	b.WriteString("</t>")
	for i := 0; i < 400; i++ {
		b.WriteString("<x>common</x>")
	}
	b.WriteString("</a>")
	d := parseDoc(t, "big.xml", b.String())

	sdb := simpledb.New(meter.NewLedger())
	if err := CreateTables(sdb, LUI); err != nil {
		t.Fatal(err)
	}
	dur, stats, err := LoadDocument(sdb, LUI, d, OptionsFor(sdb))
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("no modeled latency")
	}
	if stats.Items <= stats.Entries {
		t.Skipf("no splitting occurred (items=%d entries=%d)", stats.Items, stats.Entries)
	}
	byKey, _, err := ReadKeys(sdb, LUI.TableName(flatTable), []string{"wcommon"}, IDPosting, false)
	if err != nil {
		t.Fatal(err)
	}
	ids := byKey["wcommon"]["big.xml"].IDs
	if len(ids) != 401 { // 1 text node in <t> + 400 in <x>
		t.Errorf("wcommon IDs = %d, want 401", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i].Pre <= ids[i-1].Pre {
			t.Fatal("merged IDs not sorted by pre")
		}
	}
}

func TestSimpleDBIndexLargerThanDynamo(t *testing.T) {
	// SimpleDB cannot hold binary values, so identifier sets are stored as
	// text — the LUI index occupies more bytes (and at least as many
	// items) than on DynamoDB, one of the measured gaps of Table 7.
	docs := xmark.Generate(func() xmark.Config {
		c := xmark.DefaultConfig(6)
		c.TargetDocBytes = 8 << 10
		return c
	}())
	measure := func(store kv.Store) (bytes, items int64) {
		loadCorpus(t, store, LUI, docs)
		for _, tbl := range LUI.Tables() {
			bytes += store.TableBytes(tbl)
			items += store.ItemCount(tbl)
		}
		return bytes, items
	}
	dyn := dynamodb.New(meter.NewLedger())
	if err := CreateTables(dyn, LUI); err != nil {
		t.Fatal(err)
	}
	sdb := simpledb.New(meter.NewLedger())
	if err := CreateTables(sdb, LUI); err != nil {
		t.Fatal(err)
	}
	db, di := measure(dyn)
	sb, si := measure(sdb)
	if sb <= db {
		t.Errorf("simpledb bytes = %d, dynamodb bytes = %d: text encoding must be larger", sb, db)
	}
	if si < di {
		t.Errorf("simpledb items = %d < dynamodb items = %d", si, di)
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range All() {
		got, err := ByName(s.Name())
		if err != nil || got != s {
			t.Errorf("ByName(%s) = %v, %v", s.Name(), got, err)
		}
	}
	if _, err := ByName("LUX"); err == nil {
		t.Error("unknown name accepted")
	}
}
