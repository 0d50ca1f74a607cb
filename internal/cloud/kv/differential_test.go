package kv_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
)

// The differential tests drive kv.MemStore and the map store it replaced
// (reference_test.go) through one sequence of operations and require that
// nothing either of them returns or reports differs: items, modeled
// durations, errors, the four size figures and the whole ledger. The
// sequence is decoded from a byte string, so the seeded test and the fuzz
// target share the interpreter; every byte string is a valid sequence.

var diffTables = []string{"ids", "paths"}

// opStream hands out the bytes of an operation sequence; past the end it
// yields zeros.
type opStream struct {
	data []byte
	pos  int
}

func (s *opStream) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *opStream) done() bool { return s.pos >= len(s.data) }

// differ holds the pair of stores under comparison.
type differ struct {
	t        *testing.T
	got      *kv.MemStore
	want     *refStore
	gotLed   *meter.Ledger
	wantLed  *meter.Ledger
	lim      kv.Limits
	step     int
	rewrites int64           // of tables since deleted
	lastDump map[string]held // per table: the views of the last dump, re-read at the next
}

func newDiffer(t *testing.T, backend string) *differ {
	d := &differ{t: t, gotLed: meter.NewLedger(), wantLed: meter.NewLedger(), lastDump: map[string]held{}}
	switch backend {
	case dynamodb.Backend:
		d.got = dynamodb.New(d.gotLed)
	case simpledb.Backend:
		d.got = simpledb.New(d.gotLed)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	cfg := d.got.Config()
	cfg.Ledger = d.wantLed
	d.want = newRefStore(cfg)
	d.lim = cfg.Limits
	for _, tbl := range diffTables {
		d.same("create", d.got.CreateTable(tbl), d.want.CreateTable(tbl))
	}
	return d
}

func (d *differ) failf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: "+format, append([]any{d.step}, args...)...)
}

// same requires two errors to be both nil or to read the same.
func (d *differ) same(what string, got, want error) {
	d.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		d.failf("%s: error %v, reference %v", what, got, want)
	}
}

func (d *differ) sameDur(what string, got, want time.Duration) {
	d.t.Helper()
	if got != want {
		d.failf("%s: modeled duration %v, reference %v", what, got, want)
	}
}

// sameItems compares two item lists field by field and in order. A value is
// compared by content: the reference hands back nil for an empty value and
// an empty non-nil slice for "no values", which is not part of the contract.
func sameItems(got, want []kv.Item) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.HashKey != w.HashKey || g.RangeKey != w.RangeKey || len(g.Attrs) != len(w.Attrs) {
			return fmt.Errorf("item %d: %q/%q with %d attributes, reference %q/%q with %d",
				i, g.HashKey, g.RangeKey, len(g.Attrs), w.HashKey, w.RangeKey, len(w.Attrs))
		}
		if g.Size() != w.Size() {
			return fmt.Errorf("item %d: size %d, reference %d", i, g.Size(), w.Size())
		}
		for j := range g.Attrs {
			ga, wa := g.Attrs[j], w.Attrs[j]
			if ga.Name != wa.Name || len(ga.Values) != len(wa.Values) {
				return fmt.Errorf("item %d attribute %d: %q with %d values, reference %q with %d",
					i, j, ga.Name, len(ga.Values), wa.Name, len(wa.Values))
			}
			for k := range ga.Values {
				if !bytes.Equal(ga.Values[k], wa.Values[k]) {
					return fmt.Errorf("item %d attribute %q value %d differs", i, ga.Name, k)
				}
			}
		}
	}
	return nil
}

func (d *differ) sameGroups(what string, got, want map[string][]kv.Item) {
	d.t.Helper()
	if len(got) != len(want) {
		d.failf("%s: %d keys, reference %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			d.failf("%s: key %q missing", what, k)
		}
		if err := sameItems(g, w); err != nil {
			d.failf("%s: key %q: %v", what, k, err)
		}
	}
}

// check compares everything the stores report about themselves.
func (d *differ) check() {
	d.t.Helper()
	if g, w := d.got.Tables(), d.want.Tables(); !reflect.DeepEqual(g, w) {
		d.failf("tables %v, reference %v", g, w)
	}
	for _, tbl := range diffTables {
		if g, w := d.got.TableBytes(tbl), d.want.TableBytes(tbl); g != w {
			d.failf("TableBytes(%s) = %d, reference %d", tbl, g, w)
		}
		if g, w := d.got.OverheadBytes(tbl), d.want.OverheadBytes(tbl); g != w {
			d.failf("OverheadBytes(%s) = %d, reference %d", tbl, g, w)
		}
		if g, w := d.got.ItemCount(tbl), d.want.ItemCount(tbl); g != w {
			d.failf("ItemCount(%s) = %d, reference %d", tbl, g, w)
		}
	}
	if g, w := d.got.TotalBytes(), d.want.TotalBytes(); g != w {
		d.failf("TotalBytes = %d, reference %d", g, w)
	}
	if g, w := d.gotLed.Snapshot(), d.wantLed.Snapshot(); !reflect.DeepEqual(g, w) {
		d.failf("ledger\n%v\nreference\n%v", g, w)
	}
}

func (d *differ) dump() {
	d.t.Helper()
	for _, tbl := range diffTables {
		got := d.got.DumpTable(tbl)
		if err := sameItems(got, d.want.DumpTable(tbl)); err != nil {
			d.failf("DumpTable(%s): %v", tbl, err)
		}
		// The views of the previous dump must still read as they did.
		if err := d.lastDump[tbl].changed(); err != nil {
			d.failf("views of an earlier DumpTable(%s) changed: %v", tbl, err)
		}
		d.lastDump[tbl] = hold(got)
	}
}

// held is a list of views with a deep copy taken when they were fresh, to
// show later that the views still read as they did.
type held struct{ views, copies []kv.Item }

func hold(views []kv.Item) held { return held{views, copyItems(views)} }

func (h held) changed() error { return sameItems(h.views, h.copies) }

func copyItems(items []kv.Item) []kv.Item {
	out := make([]kv.Item, len(items))
	for i, it := range items {
		out[i] = copyItem(it)
		out[i].HashKey, out[i].RangeKey = strings.Clone(it.HashKey), strings.Clone(it.RangeKey)
	}
	return out
}

var (
	// Skewed: the first keys take most of the traffic, so their groups grow
	// long and see most of the overwrites. The empty key is invalid.
	diffHashKeys = []string{"ename", "wtext", "aid", "e\x00path", "k4", "k5", "k6", ""}
	// Among them keys that tie on the three bytes a reference carries, with
	// and without zero padding.
	diffRangeKeys = []string{"", "\x00", "00", "3f9", "3f9a", "3f9b", "7c", "a1b2c3d4e5f60718", "ff", "zz", "é"}
	diffNames     = []string{"doc-a.xml", "doc-b.xml", "u", ""}
)

func (d *differ) table(s *opStream) string {
	if v := s.next(); v < 250 {
		return diffTables[v%len(diffTables)]
	}
	return "nowhere"
}

func (d *differ) hashKey(s *opStream) string {
	return diffHashKeys[min(s.next()%len(diffHashKeys), s.next()%len(diffHashKeys))]
}

func (d *differ) value(s *opStream, n int) kv.Value {
	fill := byte('a' + s.next()%26)
	if fill == 'z' {
		fill = 0xfe // not text: the SimpleDB limits must refuse it
	}
	return bytes.Repeat([]byte{fill}, n)
}

// item decodes one item: empty, single-valued like the index's, multi-
// attribute and multi-valued with empty values among them, large, and
// exactly at (or one byte over) the store's item size limit.
func (d *differ) item(s *opStream) kv.Item {
	it := kv.Item{HashKey: d.hashKey(s), RangeKey: diffRangeKeys[s.next()%len(diffRangeKeys)]}
	switch shape := s.next() % 16; {
	case shape == 0:
	case shape < 9:
		it.Attrs = []kv.Attr{{Name: diffNames[s.next()%len(diffNames)], Values: []kv.Value{d.value(s, s.next()%96)}}}
	case shape < 13:
		for a := s.next() % 4; a > 0; a-- {
			attr := kv.Attr{Name: diffNames[s.next()%len(diffNames)]}
			for v := s.next() % 4; v > 0; v-- {
				attr.Values = append(attr.Values, d.value(s, (s.next()%8)*(s.next()%32)))
			}
			it.Attrs = append(it.Attrs, attr)
		}
	case shape < 15:
		n := 600 + 4*s.next()
		if int64(n) > d.lim.MaxValueBytes && s.next()%4 != 0 {
			n = int(d.lim.MaxValueBytes) // SimpleDB's 1 KB: mostly at the limit, sometimes over
		}
		it.Attrs = []kv.Attr{{Name: "u", Values: []kv.Value{d.value(s, n)}}}
	default:
		attr := kv.Attr{Name: "u"}
		room := d.lim.MaxItemBytes - it.Size() - int64(len(attr.Name)) + int64(s.next()%8/7) // 1 in 8 is a byte too large
		for room > 0 {
			n := min(room, d.lim.MaxValueBytes)
			attr.Values = append(attr.Values, d.value(s, int(n)))
			room -= n
		}
		it.Attrs = []kv.Attr{attr}
	}
	return it
}

func (d *differ) items(s *opStream) []kv.Item {
	n := 1 + s.next()%6
	if n == 6 && s.next()%4 == 0 {
		n = d.lim.BatchPutItems + 1 // over the batch limit
	}
	items := make([]kv.Item, n)
	for i := range items {
		items[i] = d.item(s)
	}
	return items
}

func (d *differ) keys(s *opStream) []string {
	keys := make([]string, 1+s.next()%3)
	for i := range keys {
		keys[i] = d.hashKey(s)
	}
	return keys
}

// run interprets the whole stream, comparing after every operation.
func (d *differ) run(s *opStream) {
	for !s.done() {
		d.step++
		switch op := s.next() % 16; op {
		case 0, 1, 2, 3: // put, which over these few primary keys is mostly an overwrite
			tbl, it := d.table(s), d.item(s)
			gd, gerr := d.got.Put(tbl, it)
			wd, werr := d.want.Put(tbl, it)
			d.same("Put", gerr, werr)
			d.sameDur("Put", gd, wd)
		case 4, 5:
			tbl, items := d.table(s), d.items(s)
			gd, gerr := d.got.BatchPut(tbl, items)
			wd, werr := d.want.BatchPut(tbl, items)
			d.same("BatchPut", gerr, werr)
			d.sameDur("BatchPut", gd, wd)
		case 6:
			groups := []kv.TableItems{{Table: d.table(s), Items: d.items(s)}, {Table: d.table(s), Items: d.items(s)}}
			gd, gerr := d.got.BatchPutMulti(groups)
			wd, werr := d.want.BatchPutMulti(groups)
			d.same("BatchPutMulti", gerr, werr)
			d.sameDur("BatchPutMulti", gd, wd)
		case 7, 8, 9:
			tbl, hk, rk := d.table(s), d.hashKey(s), diffRangeKeys[s.next()%len(diffRangeKeys)]
			gd, gerr := d.got.DeleteItem(tbl, hk, rk)
			wd, werr := d.want.DeleteItem(tbl, hk, rk)
			d.same("DeleteItem", gerr, werr)
			d.sameDur("DeleteItem", gd, wd)
		case 10, 11:
			tbl, hk := d.table(s), d.hashKey(s)
			gi, gd, gerr := d.got.Get(context.Background(), tbl, hk)
			wi, wd, werr := d.want.Get(context.Background(), tbl, hk)
			d.same("Get", gerr, werr)
			d.sameDur("Get", gd, wd)
			if err := sameItems(gi, wi); err != nil {
				d.failf("Get(%s, %q): %v", tbl, hk, err)
			}
		case 12:
			tbl, keys := d.table(s), d.keys(s)
			gm, gd, gerr := d.got.BatchGet(context.Background(), tbl, keys)
			wm, wd, werr := d.want.BatchGet(context.Background(), tbl, keys)
			d.same("BatchGet", gerr, werr)
			d.sameDur("BatchGet", gd, wd)
			d.sameGroups("BatchGet", gm, wm)
		case 13:
			groups := []kv.TableKeys{{Table: d.table(s), Keys: d.keys(s)}, {Table: d.table(s), Keys: d.keys(s)}}
			gr, gd, gerr := d.got.BatchGetMulti(context.Background(), groups)
			wr, wd, werr := d.want.BatchGetMulti(context.Background(), groups)
			d.same("BatchGetMulti", gerr, werr)
			d.sameDur("BatchGetMulti", gd, wd)
			if len(gr) != len(wr) {
				d.failf("BatchGetMulti: %d results, reference %d", len(gr), len(wr))
			}
			for i := range wr {
				d.sameGroups("BatchGetMulti", gr[i], wr[i])
			}
		case 14:
			d.dump()
		case 15:
			if s.next()%8 != 0 {
				continue // rare: it empties a table
			}
			tbl := d.table(s)
			d.rewrites += d.got.ArenaStats(tbl).Rewrites
			d.same("DeleteTable", d.got.DeleteTable(tbl), d.want.DeleteTable(tbl))
			d.same("CreateTable", d.got.CreateTable(tbl), d.want.CreateTable(tbl))
		}
		d.check()
	}
	d.dump()
	d.dump() // the second one re-reads the first one's views
}

func TestMemStoreMatchesReference(t *testing.T) {
	for _, backend := range []string{dynamodb.Backend, simpledb.Backend} {
		t.Run(backend, func(t *testing.T) {
			size := 400 << 10 // about 25,000 operations
			if testing.Short() {
				size = 40 << 10
			}
			data := make([]byte, size)
			rand.New(rand.NewSource(16)).Read(data)
			d := newDiffer(t, backend)
			d.run(&opStream{data: data})
			rewrites := d.rewrites
			for _, tbl := range diffTables {
				rewrites += d.got.ArenaStats(tbl).Rewrites
			}
			if rewrites < 3 {
				t.Errorf("%d arena rewrites over %d operations: the sequence no longer exercises them", rewrites, d.step)
			}
			t.Logf("%d operations, %d arena rewrites, %d items at the end", d.step, rewrites, d.got.ItemCount(diffTables[0])+d.got.ItemCount(diffTables[1]))
		})
	}
}

func FuzzMemStoreDifferential(f *testing.F) {
	f.Add(false, []byte{0, 0, 0, 0, 1, 1, 10, 0, 0, 0, 14})
	f.Add(true, []byte{4, 1, 5, 0, 0, 2, 1, 40, 0, 0, 1, 12, 0, 1, 2, 60, 12, 1, 2, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, simple bool, data []byte) {
		backend := dynamodb.Backend
		if simple {
			backend = simpledb.Backend
		}
		if len(data) > 4096 {
			data = data[:4096] // items at the size limit make long sequences slow, not deeper
		}
		newDiffer(t, backend).run(&opStream{data: data})
	})
}
