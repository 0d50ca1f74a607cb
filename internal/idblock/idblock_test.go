package idblock

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

func randomSortedIDs(r *rand.Rand, n int) []xmltree.NodeID {
	ids := make([]xmltree.NodeID, n)
	pre := int32(0)
	for i := range ids {
		pre += 1 + r.Int31n(50)
		ids[i] = xmltree.NodeID{
			Pre:   pre,
			Post:  r.Int31n(1 << 20),
			Depth: 1 + r.Int31n(40),
		}
	}
	return ids
}

func parseAll(t *testing.T, blobs [][]byte) []*Set {
	t.Helper()
	sets := make([]*Set, 0, len(blobs))
	for _, b := range blobs {
		s, err := Parse(b)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		sets = append(sets, s)
	}
	return sets
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 2, 100, 128, 129, 1000, 5000} {
		ids := randomSortedIDs(r, n)
		blobs := EncodePacked(ids, DefaultBlockSize, 4096)
		sets := parseAll(t, blobs)
		merged, ok := Merge(sets)
		if !ok {
			t.Fatalf("n=%d: Merge failed on contiguous blobs", n)
		}
		if merged.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, merged.Len())
		}
		got, err := merged.All()
		if err != nil {
			t.Fatalf("All: %v", err)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestRoundTripDuplicatePres(t *testing.T) {
	// Equal pre ranks are legal (multiple URIs never share a Set, but one
	// document can repeat pre values only via hostile inputs; the codec must
	// stay well-defined regardless).
	ids := []xmltree.NodeID{
		{Pre: 5, Post: 9, Depth: 2},
		{Pre: 5, Post: 3, Depth: 4},
		{Pre: 7, Post: 1, Depth: 1},
	}
	blobs := EncodePacked(ids, 2, 1<<20)
	sets := parseAll(t, blobs)
	merged, ok := Merge(sets)
	if !ok {
		t.Fatal("Merge failed")
	}
	got, err := merged.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("mismatch: %v != %v", got, ids)
	}
}

func TestHeadersSummarizePayloads(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ids := randomSortedIDs(r, 1000)
	blobs := EncodePacked(ids, 64, 2048)
	for _, s := range parseAll(t, blobs) {
		for i := 0; i < s.Blocks(); i++ {
			got, err := s.Block(i)
			if err != nil {
				t.Fatal(err)
			}
			if summarize(got) != s.Header(i) {
				t.Fatalf("block %d: header %+v != summary %+v", i, s.Header(i), summarize(got))
			}
			if len(got) > 64 {
				t.Fatalf("block %d: %d ids > blockSize", i, len(got))
			}
		}
	}
}

func TestEncodeRespectsMaxBlob(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ids := randomSortedIDs(r, 3000)
	const maxBlob = 512
	blobs := EncodePacked(ids, DefaultBlockSize, maxBlob)
	if len(blobs) < 2 {
		t.Fatalf("expected multiple blobs, got %d", len(blobs))
	}
	// Same overshoot contract as the headerless codec: at most one header plus
	// one triple beyond the cap.
	for i, b := range blobs {
		if len(b) > maxBlob+96 {
			t.Fatalf("blob %d: %d bytes exceeds cap %d by more than slack", i, len(b), maxBlob)
		}
	}
}

func TestEncodePanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted input")
		}
	}()
	EncodePacked([]xmltree.NodeID{{Pre: 9}, {Pre: 1}}, 0, 0)
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     {Magic2, 1, 2, 3},
		"not magic": {0x00, 1, 2, 3, 4, 5, 6, 7},
		"bad body":  {Magic2, 0, 0, 0, 0, 0xff, 0xff, 0xff},
	}
	for name, blob := range cases {
		if _, err := Parse(blob); err == nil {
			t.Fatalf("%s: Parse accepted garbage", name)
		}
	}
}

func TestParseRejectsFlippedBits(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ids := randomSortedIDs(r, 300)
	blobs := EncodePacked(ids, 32, 1<<20)
	if len(blobs) != 1 {
		t.Fatalf("want 1 blob, got %d", len(blobs))
	}
	blob := blobs[0]
	for i := 5; i < len(blob); i++ { // keep magic+checksum, flip body bytes
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := Parse(mut); err == nil {
			t.Fatalf("byte %d: checksum failed to catch flip", i)
		}
	}
}

func TestLegacyLikeBlobFallsThrough(t *testing.T) {
	// A headerless delta+varint stream whose first byte happens to be the
	// magic (first Pre with low byte 0xB2, e.g. 178). Parse must reject it
	// so the codec decodes it as the stream it is.
	stream := []byte{Magic2, 0x01, 0x05, 0x03, 0x02, 0x01, 0x04, 0x02}
	if _, err := Parse(stream); err == nil {
		t.Fatal("Parse accepted a stream-shaped blob")
	}
}

// formerV1Blob is a blob of the retired format that started with 0xB1 and
// had bare varint block payloads: five identifiers in three blocks, checksum
// valid, written by the encoder this package no longer has.
const formerV1Blob = "b10b10f9db03020201060502010602080204030401060112000e00040003010801010302040203020502090702"

func TestFormerV1BlobIsNotBlocked(t *testing.T) {
	blob, err := hex.DecodeString(formerV1Blob)
	if err != nil {
		t.Fatal(err)
	}
	if Looks(blob) {
		t.Fatal("Looks takes a 0xB1 blob for a blocked one")
	}
	if _, err := Parse(blob); !errors.Is(err, ErrNotBlocked) {
		t.Fatalf("Parse(0xB1 blob) = %v, want ErrNotBlocked", err)
	}
}

func TestFromIDs(t *testing.T) {
	if FromIDs(nil) != nil {
		t.Fatal("FromIDs(nil) != nil")
	}
	ids := []xmltree.NodeID{{Pre: 1, Post: 4, Depth: 1}, {Pre: 2, Post: 3, Depth: 2}}
	s := FromIDs(ids)
	if s.Len() != 2 || s.Blocks() != 1 {
		t.Fatalf("Len=%d Blocks=%d", s.Len(), s.Blocks())
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatal("FromIDs round trip mismatch")
	}
	if s.Header(0) != summarize(ids) {
		t.Fatal("FromIDs header mismatch")
	}
}

func TestMergeOrdersSegments(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ids := randomSortedIDs(r, 900)
	blobs := EncodePacked(ids, 32, 700)
	if len(blobs) < 3 {
		t.Fatalf("want >=3 blobs, got %d", len(blobs))
	}
	sets := parseAll(t, blobs)
	// Shuffle segment order, as ReadKeys may surface items in any order.
	perm := r.Perm(len(sets))
	shuffled := make([]*Set, len(sets))
	for i, p := range perm {
		shuffled[i] = sets[p]
	}
	merged, ok := Merge(shuffled)
	if !ok {
		t.Fatal("Merge failed on shuffled contiguous segments")
	}
	got, err := merged.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatal("merged round trip mismatch")
	}
}

func TestMergeDetectsOverlap(t *testing.T) {
	a := FromIDs([]xmltree.NodeID{{Pre: 1}, {Pre: 10}})
	b := FromIDs([]xmltree.NodeID{{Pre: 5}, {Pre: 20}})
	if _, ok := Merge([]*Set{a, b}); ok {
		t.Fatal("Merge accepted overlapping segments")
	}
}

func TestAppendBlockReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ids := randomSortedIDs(r, 200)
	blobs := EncodePacked(ids, 64, 1<<20)
	s := parseAll(t, blobs)[0]
	buf := make([]xmltree.NodeID, 0, 256)
	var got []xmltree.NodeID
	for i := 0; i < s.Blocks(); i++ {
		dec, err := s.AppendBlock(buf[:0], i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dec...)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatal("AppendBlock mismatch")
	}
}

func TestBlockMemoization(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ids := randomSortedIDs(r, 100)
	s := parseAll(t, EncodePacked(ids, 32, 1<<20))[0]
	a, err := s.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("Block(0) not memoized")
	}
}
