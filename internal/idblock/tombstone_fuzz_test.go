package idblock

import (
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// FuzzMergeTombstones feeds arbitrary segment and tombstone blobs to the
// tombstone-aware merge. Invariants: no panic, and whenever both blobs
// parse and the merge reports ok, the result is exactly the reference
// decode-everything-and-subtract answer (sorted, with a consistent Len and
// per-block decode).
func FuzzMergeTombstones(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	ids := randomSortedIDs(r, 240)
	var dead []xmltree.NodeID
	for i, id := range ids {
		if i%5 == 0 {
			dead = append(dead, id)
		}
	}
	// Segments whose blocks keep the varint payload, and ones that pack.
	vids := outlierIDs(240)
	var vdead []xmltree.NodeID
	for i := 0; i < len(vids); i += 5 {
		vdead = append(vdead, vids[i])
	}
	for _, bs := range []int{1, 16, 128} {
		f.Add(EncodePacked(vids, bs, 1<<20)[0], EncodePacked(vdead, bs, 1<<20)[0])
		f.Add(EncodePacked(ids, bs, 1<<20)[0], EncodePacked(dead, bs, 1<<20)[0])
	}
	f.Add([]byte{Magic2, 0}, []byte{Magic2, 1})
	f.Fuzz(func(t *testing.T, segBlob, deadBlob []byte) {
		seg, err := Parse(segBlob)
		if err != nil {
			return
		}
		var deadSet *Set
		if d, err := Parse(deadBlob); err == nil {
			deadSet = d
		}
		merged, ok := MergeTombstones([]*Set{seg}, deadSet)
		if !ok {
			return
		}
		segAll, errSeg := seg.All()
		var deadAll []xmltree.NodeID
		var errDead error
		if deadSet != nil {
			deadAll, errDead = deadSet.All()
		}
		if errSeg != nil || errDead != nil {
			// Corrupt payloads surface on decode; the merge itself must
			// only fail the same way, never panic or invent identifiers.
			if merged != nil {
				if _, err := merged.All(); err == nil && errSeg != nil {
					t.Fatalf("merged decodes but source segment is corrupt")
				}
			}
			return
		}
		deadPres := map[int32]bool{}
		for _, id := range deadAll {
			deadPres[id.Pre] = true
		}
		var want []xmltree.NodeID
		for _, id := range segAll {
			if !deadPres[id.Pre] {
				want = append(want, id)
			}
		}
		var got []xmltree.NodeID
		if merged != nil {
			got, err = merged.All()
			if err != nil {
				t.Fatalf("merged.All: %v", err)
			}
			if merged.Len() != len(got) {
				t.Fatalf("Len=%d but decoded %d", merged.Len(), len(got))
			}
			if !IsSorted(got) {
				t.Fatalf("merged set not sorted")
			}
		}
		if len(got) != len(want) {
			t.Fatalf("subtracted %d ids, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("id %d: got %v want %v", i, got[i], want[i])
			}
		}
	})
}
