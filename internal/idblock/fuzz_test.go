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
		for _, blob := range EncodePacked(outlierIDs(300), bs, 1<<20, nil) {
			f.Add(blob)
		}
		for _, blob := range EncodePacked(ids, bs, 1<<20, nil) {
			f.Add(blob)
		}
	}
	// A packed blob over a duplicate-heavy set (zero-span columns).
	dup := ids[:0:0]
	for i := 0; i < 40; i++ {
		dup = append(dup, ids[i%4])
	}
	sortByPre(dup)
	for _, blob := range EncodePacked(dup, DefaultBlockSize, 1<<20, nil) {
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
		a := new(Arena)
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
		for _, b := range EncodePacked(all, DefaultBlockSize, 1<<20, nil) {
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

// FuzzCountVarintTriples: the allocation-free count scan accepts a stream
// exactly when AppendVarintTriples does, and counts the triples it decodes.
// A reader that validates with the scan and decodes later relies on both.
func FuzzCountVarintTriples(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{3, 3, 2, 3, 8, 3, 1, 2, 3}) // a word of terminators, then a tail
	f.Add([]byte{3, 0x83, 0x01, 2, 6, 0x90, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 3, 4, 5, 6}) // 10-byte varint across words
	f.Add([]byte{1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 3, 4, 5, 6}) // same, 10th byte 2
	f.Add([]byte{0x80, 0x00, 1, 1})                                                             // overlong zero: accepted
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 3, 4}) // 10th byte > 1
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 1, 1})
	f.Add([]byte{1, 1, 0x80})                      // truncated inside a varint
	f.Add([]byte{1, 1, 1, 1})                      // four varints: not whole triples
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}) // eleven varints
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := CountVarintTriples(data)
		ids, decErr := AppendVarintTriples(nil, data)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("stream %x: count err=%v, decode err=%v", data, err, decErr)
		}
		if err == nil && n != len(ids) {
			t.Fatalf("stream %x: count %d, decoded %d", data, n, len(ids))
		}
	})
}
