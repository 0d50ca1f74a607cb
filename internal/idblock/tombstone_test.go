package idblock

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

// refSubtract is the reference semantics: decode every segment, drop every
// identifier whose Pre appears in dead, return the survivors in pre order.
func refSubtract(t *testing.T, sets []*Set, dead *Set) []xmltree.NodeID {
	t.Helper()
	deadPres := map[int32]bool{}
	if dead != nil {
		all, err := dead.All()
		if err != nil {
			t.Fatalf("dead.All: %v", err)
		}
		for _, id := range all {
			deadPres[id.Pre] = true
		}
	}
	var out []xmltree.NodeID
	for _, s := range sets {
		all, err := s.All()
		if err != nil {
			t.Fatalf("seg.All: %v", err)
		}
		for _, id := range all {
			if !deadPres[id.Pre] {
				out = append(out, id)
			}
		}
	}
	sortByPre(out)
	return out
}

func TestMergeTombstonesSubtracts(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ids := randomSortedIDs(r, 500)
	sets := parseAll(t, EncodePacked(ids, 64, 1<<20))
	// Tombstone every third identifier, plus some pres not in the set.
	var deadIDs []xmltree.NodeID
	for i, id := range ids {
		if i%3 == 0 {
			deadIDs = append(deadIDs, id)
		}
	}
	deadIDs = append(deadIDs, xmltree.NodeID{Pre: 1 << 29, Post: 1, Depth: 1})
	sortByPre(deadIDs)
	dead := parseAll(t, EncodePacked(deadIDs, 64, 1<<20))[0]

	merged, ok := MergeTombstones(sets, dead)
	if !ok {
		t.Fatalf("MergeTombstones returned ok=false on non-overlapping segments")
	}
	got, err := merged.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	want := refSubtract(t, sets, dead)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subtract mismatch: got %d ids, want %d", len(got), len(want))
	}
	if merged.Len() != len(want) {
		t.Fatalf("Len=%d, want %d", merged.Len(), len(want))
	}
	// Per-block decode agrees with All on the mixed encoded/pre-decoded set.
	var per []xmltree.NodeID
	for i := 0; i < merged.Blocks(); i++ {
		var err error
		per, err = merged.AppendBlockArena(per, i, nil)
		if err != nil {
			t.Fatalf("AppendBlockArena(%d): %v", i, err)
		}
	}
	if !reflect.DeepEqual(per, want) {
		t.Fatalf("per-block decode disagrees with All")
	}
}

func TestMergeTombstonesNilAndEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ids := randomSortedIDs(r, 100)
	sets := parseAll(t, EncodePacked(ids, 32, 1<<20))

	merged, ok := MergeTombstones(sets, nil)
	if !ok || merged.Len() != len(ids) {
		t.Fatalf("nil dead must be a plain merge: ok=%v len=%d", ok, merged.Len())
	}
	// Pass-through must keep payloads encoded (lazy), not decode eagerly.
	if merged.decoded != nil {
		t.Fatalf("nil dead decoded blocks eagerly")
	}

	dead := parseAll(t, EncodePacked(ids, 32, 1<<20))[0]
	merged, ok = MergeTombstones(sets, dead)
	if !ok {
		t.Fatalf("full subtraction returned ok=false")
	}
	if merged != nil {
		t.Fatalf("subtracting everything must yield nil, got %d ids", merged.Len())
	}

	if m, ok := MergeTombstones(nil, dead); !ok || m != nil {
		t.Fatalf("no segments: got %v ok=%v", m, ok)
	}
}

func TestMergeTombstonesOverlapFallsBack(t *testing.T) {
	a := FromIDs([]xmltree.NodeID{{Pre: 1, Post: 1, Depth: 1}, {Pre: 9, Post: 9, Depth: 1}})
	b := FromIDs([]xmltree.NodeID{{Pre: 5, Post: 5, Depth: 1}})
	dead := FromIDs([]xmltree.NodeID{{Pre: 9, Post: 9, Depth: 1}})
	if _, ok := MergeTombstones([]*Set{a, b}, dead); ok {
		t.Fatalf("overlapping pre ranges must report ok=false")
	}
}

func TestMergeTombstonesLazyPassThrough(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ids := randomSortedIDs(r, 256)
	sets := parseAll(t, EncodePacked(ids, 64, 1<<20))
	// Kill only the very last identifier: every earlier block must pass
	// through with its payload bytes intact.
	dead := FromIDs([]xmltree.NodeID{ids[len(ids)-1]})
	merged, ok := MergeTombstones(sets, dead)
	if !ok {
		t.Fatalf("ok=false")
	}
	if merged.Len() != len(ids)-1 {
		t.Fatalf("Len=%d want %d", merged.Len(), len(ids)-1)
	}
	encodedBlocks := 0
	for i := range merged.blocks {
		if merged.blocks[i].data != nil {
			encodedBlocks++
		}
	}
	if encodedBlocks == 0 {
		t.Fatalf("expected untouched blocks to stay encoded")
	}
	if got := refSubtract(t, sets, dead); got[0] != ids[0] || len(got) != merged.Len() {
		t.Fatalf("reference disagrees")
	}
}

// TestMergeTombstonesProperty drives random segment splits and random
// tombstone subsets against the reference subtraction.
func TestMergeTombstonesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(400)
		ids := randomSortedIDs(r, n)
		if r.Intn(2) == 0 {
			ids = outlierIDs(n) // blocks that keep the varint payload
		}
		blockSize := 1 + r.Intn(96)
		sets := parseAll(t, EncodePacked(ids, blockSize, 1+r.Intn(4096)))
		var deadIDs []xmltree.NodeID
		for _, id := range ids {
			if r.Intn(3) == 0 {
				deadIDs = append(deadIDs, id)
			}
		}
		// Mix in pres outside the set.
		for i := 0; i < r.Intn(5); i++ {
			deadIDs = append(deadIDs, xmltree.NodeID{Pre: int32(1<<28 + i), Post: 1, Depth: 1})
		}
		sortByPre(deadIDs)
		var dead *Set
		if len(deadIDs) > 0 {
			dead = parseAll(t, EncodePacked(deadIDs, 16, 1<<20))[0]
		}
		merged, ok := MergeTombstones(sets, dead)
		if !ok {
			t.Fatalf("trial %d: ok=false on contiguous segments", trial)
		}
		var got []xmltree.NodeID
		if merged != nil {
			var err error
			got, err = merged.All()
			if err != nil {
				t.Fatalf("trial %d: All: %v", trial, err)
			}
		}
		want := refSubtract(t, sets, dead)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
	}
}
