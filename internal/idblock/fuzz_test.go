package idblock

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzParse throws arbitrary bytes at the blocked-blob parser and, when a
// blob parses, at every decode path. Invariants: no panic, no oversized
// allocation (the count guards), decode errors always wrap ErrCorrupt, and
// a re-encode of whatever decoded round-trips to the same identifiers.
func FuzzParse(f *testing.F) {
	r := rand.New(rand.NewSource(99))
	ids := randomSortedIDs(r, 300)
	for _, bs := range []int{1, 3, 128} {
		// Blocks that keep the varint payload, then blocks that pack.
		for _, blob := range EncodePacked(outlierIDs(300), bs, 1<<20) {
			f.Add(blob)
		}
		for _, blob := range EncodePacked(ids, bs, 1<<20) {
			f.Add(blob)
		}
	}
	// A packed blob over a duplicate-heavy set (zero-span columns).
	dup := ids[:0:0]
	for i := 0; i < 40; i++ {
		dup = append(dup, ids[i%4])
	}
	sortByPre(dup)
	for _, blob := range EncodePacked(dup, DefaultBlockSize, 1<<20) {
		f.Add(blob)
	}
	f.Add([]byte{Magic2, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := Parse(blob)
		if err != nil {
			return
		}
		all, errAll := s.All()
		// Per-block decode must agree with All, errors and contents alike.
		var per []int
		perOK := true
		a := GetArena()
		defer PutArena(a)
		for i := 0; i < s.Blocks(); i++ {
			out, err := s.AppendBlockArena(nil, i, a)
			if err != nil {
				perOK = false
				break
			}
			per = append(per, len(out))
		}
		if (errAll == nil) != perOK {
			t.Fatalf("All err=%v but per-block ok=%v", errAll, perOK)
		}
		if errAll != nil {
			return
		}
		n := 0
		for _, c := range per {
			n += c
		}
		if n != len(all) || s.Len() != len(all) {
			t.Fatalf("decoded %d ids, per-block %d, Len %d", len(all), n, s.Len())
		}
		if !IsSorted(all) {
			t.Fatalf("decode produced unsorted identifiers")
		}
		// Re-encode and decode back.
		var got []int32
		for _, b := range EncodePacked(all, DefaultBlockSize, 1<<20) {
			s2, err := Parse(b)
			if err != nil {
				t.Fatalf("re-encoded blob does not parse: %v", err)
			}
			all2, err := s2.All()
			if err != nil {
				t.Fatalf("re-encoded blob does not decode: %v", err)
			}
			for _, id := range all2 {
				got = append(got, id.Pre)
			}
		}
		want := make([]int32, len(all))
		for i, id := range all {
			want[i] = id.Pre
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("re-encode round trip changed the set")
		}
	})
}
