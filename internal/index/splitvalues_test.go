package index

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cloud/kv"
)

// splitValues assigns each value group an ordinal, and ItemRangeKey derives
// item identity from that ordinal — so the grouping must be a pure function
// of the input (ordinal stability) or re-written documents would leave
// orphaned items behind. These tests pin the edge cases down.

// splitValues returns the groups appendDocItems packs an entry's values into,
// one per item, for an entry whose key and URI take fixed bytes.
func splitValues(values [][]byte, budget, fixed int64) [][]kv.Value {
	e := Entry{Key: strings.Repeat("k", int(fixed)), Values: values}
	var groups [][]kv.Value
	for _, item := range appendDocItems(nil, "", "tbl", []Entry{e}, budget) {
		groups = append(groups, item.Attrs[0].Values)
	}
	return groups
}

// entryItems is appendDocItems for one entry.
func entryItems(uri, table string, e Entry, itemBudget int64) []kv.Item {
	return appendDocItems(nil, uri, table, []Entry{e}, itemBudget)
}

func collectGroups(t *testing.T, values [][]byte, budget, fixed int64) [][][]byte {
	t.Helper()
	groups := splitValues(values, budget, fixed)
	out := make([][][]byte, len(groups))
	for i, g := range groups {
		for _, v := range g {
			out[i] = append(out[i], []byte(v))
		}
	}
	return out
}

func TestSplitValuesExactBudget(t *testing.T) {
	// One value exactly at the available budget (budget - fixed) must fill
	// a single group, and a follow-up value must start group 1.
	const budget, fixed = 100, 20
	exact := bytes.Repeat([]byte("a"), budget-fixed)
	groups := collectGroups(t, [][]byte{exact}, budget, fixed)
	if len(groups) != 1 || len(groups[0]) != 1 {
		t.Fatalf("exact-fit value: groups = %d, want 1 group of 1 value", len(groups))
	}

	groups = collectGroups(t, [][]byte{exact, []byte("b")}, budget, fixed)
	if len(groups) != 2 {
		t.Fatalf("exact fit + one byte: groups = %d, want 2", len(groups))
	}
	if !bytes.Equal(groups[0][0], exact) || string(groups[1][0]) != "b" {
		t.Fatal("values assigned to wrong ordinals")
	}
}

func TestSplitValuesOversizedSingleValue(t *testing.T) {
	// A single value above the budget is never split or dropped: it rides
	// alone in its group (the store models oversized items; correctness
	// beats the simulated limit here, mirroring EncodeIDsBinary's oversized
	// blob behavior).
	const budget, fixed = 100, 20
	huge := bytes.Repeat([]byte("x"), 10*budget)
	groups := collectGroups(t, [][]byte{huge}, budget, fixed)
	if len(groups) != 1 || len(groups[0]) != 1 || !bytes.Equal(groups[0][0], huge) {
		t.Fatalf("oversized value: groups = %v-shaped, want [[huge]]", len(groups))
	}

	// Sandwiched between small values, the oversized value still occupies
	// its own ordinal once a split is forced.
	groups = collectGroups(t, [][]byte{[]byte("s"), huge, []byte("t")}, budget, fixed)
	if len(groups) != 3 {
		t.Fatalf("small+huge+small: groups = %d, want 3", len(groups))
	}
	if string(groups[0][0]) != "s" || !bytes.Equal(groups[1][0], huge) || string(groups[2][0]) != "t" {
		t.Fatal("small+huge+small assigned to wrong ordinals")
	}
}

func TestSplitValuesEmptyList(t *testing.T) {
	// An empty value list still yields exactly one (empty) group: ordinal 0
	// must exist so the entry materializes as an item (LU stores bare
	// presence this way) and so ItemRangeKey(…, 0) is stable.
	groups := splitValues(nil, 100, 20)
	if len(groups) != 1 || len(groups[0]) != 0 {
		t.Fatalf("empty list: groups = %d (len0=%v), want one empty group", len(groups), groups)
	}
}

func TestSplitValuesOrdinalStability(t *testing.T) {
	// Same input, same grouping — across repeated calls and regardless of
	// what was split before. ItemRangeKey depends on it.
	values := [][]byte{
		bytes.Repeat([]byte("a"), 30),
		bytes.Repeat([]byte("b"), 40),
		bytes.Repeat([]byte("c"), 30), // 30+40 fits 80-avail? see budget below
		bytes.Repeat([]byte("d"), 100),
		{},
		bytes.Repeat([]byte("e"), 10),
	}
	const budget, fixed = 100, 20
	first := collectGroups(t, values, budget, fixed)
	for i := 0; i < 5; i++ {
		again := collectGroups(t, values, budget, fixed)
		if len(again) != len(first) {
			t.Fatalf("run %d: group count %d != %d", i, len(again), len(first))
		}
		for g := range again {
			if len(again[g]) != len(first[g]) {
				t.Fatalf("run %d: group %d size changed", i, g)
			}
			for v := range again[g] {
				if !bytes.Equal(again[g][v], first[g][v]) {
					t.Fatalf("run %d: group %d value %d changed", i, g, v)
				}
			}
		}
	}
	// And the grouping feeds distinct, stable range keys per ordinal.
	keys := make(map[string]bool)
	for ordinal := range first {
		k := ItemRangeKey("doc.xml", "tbl", ordinal)
		if keys[k] {
			t.Fatalf("duplicate range key for ordinal %d", ordinal)
		}
		keys[k] = true
		if k != ItemRangeKey("doc.xml", "tbl", ordinal) {
			t.Fatal("ItemRangeKey not deterministic")
		}
	}
}
