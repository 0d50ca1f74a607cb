package index

import (
	"testing"

	"repro/internal/cloud/kv"
)

// TestCheckLayoutRejects: the checker passes a bulk commit of a corpus
// against its per-document load, and fails each way of breaking the layout
// or the postings: members out of URI order, a pack under another range
// key, a contribution in two items, one missing, one holding other values,
// and a pack over the budget.
func TestCheckLayoutRejects(t *testing.T) {
	s := LUP
	table := s.Tables()[0]
	perDoc, bulk := newStore(t, s), newStore(t, s)
	exs := extractCorpus(t, s, perDoc, testCorpus()[:6])
	for _, ex := range exs {
		if _, _, err := WriteExtraction(perDoc, ex); err != nil {
			t.Fatal(err)
		}
	}
	bulkLoad(t, bulk, exs)
	lim := bulk.Limits()
	want := kv.AsDumper(perDoc).DumpTable(table)
	good := kv.AsDumper(bulk).DumpTable(table)
	if err := CheckLayout(lim, table, good, want); err != nil {
		t.Fatalf("a clean commit fails the checker: %v", err)
	}
	pack := -1
	for i, it := range good {
		if len(it.Attrs) > 2 {
			pack = i
			break
		}
	}
	if pack < 0 {
		t.Fatal("no pack of three or more members")
	}
	// edited returns a copy of good whose pack item edit has changed.
	edited := func(edit func(it *kv.Item) []kv.Item) []kv.Item {
		out := append([]kv.Item(nil), good...)
		it := out[pack]
		it.Attrs = append([]kv.Attr(nil), it.Attrs...)
		extra := edit(&it)
		out[pack] = it
		return append(out, extra...)
	}
	for name, items := range map[string][]kv.Item{
		"members out of order": edited(func(it *kv.Item) []kv.Item {
			it.Attrs[0], it.Attrs[1] = it.Attrs[1], it.Attrs[0]
			return nil
		}),
		"another range key": edited(func(it *kv.Item) []kv.Item {
			it.RangeKey = ItemRangeKey(it.Attrs[0].Name, table, 0)
			return nil
		}),
		"a contribution twice": edited(func(it *kv.Item) []kv.Item {
			a := it.Attrs[1]
			return []kv.Item{{HashKey: it.HashKey, RangeKey: ItemRangeKey(a.Name, table, 0), Attrs: []kv.Attr{a}}}
		}),
		"a contribution missing": edited(func(it *kv.Item) []kv.Item {
			it.Attrs = it.Attrs[:len(it.Attrs)-1]
			return nil
		}),
		"other values": edited(func(it *kv.Item) []kv.Item {
			it.Attrs[1].Values = append([]kv.Value(nil), it.Attrs[1].Values...)
			it.Attrs[1].Values[0] = kv.Value("/other")
			return nil
		}),
		"over the budget": edited(func(it *kv.Item) []kv.Item {
			it.Attrs[1].Values = append(it.Attrs[1].Values[:len(it.Attrs[1].Values):len(it.Attrs[1].Values)], make(kv.Value, 48<<10))
			return nil
		}),
	} {
		if err := CheckLayout(lim, table, items, want); err == nil {
			t.Errorf("%s: the checker passes", name)
		}
	}
}
