package index

import (
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/idblock"
	"repro/internal/xmltree"
)

// genSortedIDs builds a deterministic sorted identifier set of n elements
// with strictly increasing pre and varied post/depth.
func genSortedIDs(n int, seed int64) []xmltree.NodeID {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]xmltree.NodeID, n)
	pre := int32(1)
	for i := range ids {
		pre += int32(rng.Intn(7) + 1)
		ids[i] = xmltree.NodeID{
			Pre:   pre,
			Post:  int32(rng.Intn(4 * n)),
			Depth: int32(rng.Intn(12) + 1),
		}
	}
	return ids
}

// TestEncodeIDsBlockedRoundTrip: for set sizes straddling the blockedMinIDs
// cut-off and several blob caps, every emitted blob decodes back through
// DecodeIDsBinary, and the concatenation restores the input exactly.
func TestEncodeIDsBlockedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, blockedMinIDs - 1, blockedMinIDs, 100, 1000} {
		for _, maxBlob := range []int{0, 64, 1 << 20} {
			ids := genSortedIDs(n, int64(n)*31+int64(maxBlob))
			blobs := EncodeIDs(ids, true, maxBlob)
			got := decodeAllBlobs(t, blobs)
			if n == 0 {
				if len(got) != 0 {
					t.Fatalf("n=0: decoded %v", got)
				}
				continue
			}
			if !reflect.DeepEqual(got, ids) {
				t.Fatalf("n=%d maxBlob=%d: round trip mismatch", n, maxBlob)
			}
		}
	}
}

// TestEncodeIDsBlockedFormatSelection: sets below the cut-off (and unsorted
// inputs) take the legacy stream; sets at or above it produce parseable
// blocked blobs.
func TestEncodeIDsBlockedFormatSelection(t *testing.T) {
	small := genSortedIDs(blockedMinIDs-1, 1)
	for i, b := range EncodeIDs(small, true, 0) {
		if _, err := idblock.Parse(b); err == nil {
			t.Errorf("small-set blob %d parsed as blocked, want legacy", i)
		}
	}
	large := genSortedIDs(4*blockedMinIDs, 2)
	for i, b := range EncodeIDs(large, true, 0) {
		if !idblock.Looks(b) {
			t.Fatalf("large-set blob %d lacks the blocked magic", i)
		}
		if _, err := idblock.Parse(b); err != nil {
			t.Errorf("large-set blob %d: %v", i, err)
		}
	}
	unsorted := append([]xmltree.NodeID(nil), large...)
	unsorted[0], unsorted[1] = unsorted[1], unsorted[0]
	for i, b := range EncodeIDs(unsorted, true, 0) {
		if _, err := idblock.Parse(b); err == nil {
			t.Errorf("unsorted-input blob %d parsed as blocked, want legacy fallback", i)
		}
	}
}

// TestBlockedLegacyInterop: the two binary formats decode identically
// through the shared entry points, and DecodeIDSet returns the lazy form
// exactly when the blob is blocked.
func TestBlockedLegacyInterop(t *testing.T) {
	ids := genSortedIDs(300, 7)
	legacy := EncodeIDsBinary(ids, 0)
	blocked := EncodeIDs(ids, true, 0)
	if got := decodeAllBlobs(t, legacy); !reflect.DeepEqual(got, ids) {
		t.Fatal("legacy decode mismatch")
	}
	if got := decodeAllBlobs(t, blocked); !reflect.DeepEqual(got, ids) {
		t.Fatal("blocked decode mismatch")
	}

	for _, b := range blocked {
		set, eager, err := DecodeIDSet(b, true)
		if err != nil {
			t.Fatal(err)
		}
		if set == nil || eager != nil {
			t.Fatalf("DecodeIDSet(blocked) = (%v, %v), want lazy set only", set, eager)
		}
	}
	var viaSet []xmltree.NodeID
	for _, b := range blocked {
		set, _, _ := DecodeIDSet(b, true)
		all, err := set.All()
		if err != nil {
			t.Fatal(err)
		}
		viaSet = append(viaSet, all...)
	}
	if !reflect.DeepEqual(viaSet, ids) {
		t.Fatal("lazy Set decode differs from input")
	}
	for _, b := range legacy {
		set, eager, err := DecodeIDSet(b, true)
		if err != nil {
			t.Fatal(err)
		}
		if set != nil || len(eager) == 0 {
			t.Fatalf("DecodeIDSet(legacy) = (%v, %d ids), want eager ids only", set, len(eager))
		}
	}
}

// TestFormerV1BlobDecodesAsStream: a valid blob of the retired 0xB1 format
// (five identifiers in three blocks, checksum right, written by the encoder
// idblock no longer has) is not a blocked blob any more. DecodeIDsBinary and
// DecodeIDSet treat it exactly as any headerless stream with that first
// byte: the stream decoder's verdict, whatever it is, and no lazy set.
func TestFormerV1BlobDecodesAsStream(t *testing.T) {
	blob, err := hex.DecodeString("b10b10f9db03020201060502010602080204030401060112000e00040003010801010302040203020502090702")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, wantErr := decodeIDsStream(blob)
	gotIDs, gotErr := DecodeIDsBinary(blob)
	if gotErr != wantErr || !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("DecodeIDsBinary = (%v, %v), the stream decoder gives (%v, %v)", gotIDs, gotErr, wantIDs, wantErr)
	}
	set, eager, err := DecodeIDSet(blob, true)
	if set != nil || err != wantErr || !reflect.DeepEqual(eager, wantIDs) {
		t.Fatalf("DecodeIDSet = (%v, %v, %v), want no set and the stream decoder's (%v, %v)", set, eager, err, wantIDs, wantErr)
	}
}

// TestDecodeIDsBinaryCorruptBlocked: flipping any byte of a blocked blob
// must never crash — the checksum (or strict parse) rejects it into the
// legacy path, which either errors or returns some decodable set.
func TestDecodeIDsBinaryCorruptBlocked(t *testing.T) {
	ids := genSortedIDs(200, 11)
	blob := EncodeIDs(ids, true, 0)[0]
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		got, err := DecodeIDsBinary(mut)
		if err == nil && i > 0 && reflect.DeepEqual(got, ids) {
			// A body flip that still decodes to the exact input would mean
			// the checksum let a corruption through.
			t.Fatalf("flipped byte %d decoded to the original set", i)
		}
	}
}

// TestDecodeIDsBinaryAllocs pins the allocation behaviour the benchmarks
// depend on: a legacy decode costs exactly one allocation (the pre-sized
// output slice), and a blocked full decode stays within a small constant
// regardless of set size.
func TestDecodeIDsBinaryAllocs(t *testing.T) {
	ids := genSortedIDs(2048, 3)
	legacy := EncodeIDsBinary(ids, 1<<20)[0]
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeIDsBinary(legacy); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("legacy decode allocs = %v, want 1", allocs)
	}

	blocked := EncodeIDs(ids, true, 1<<20)[0]
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeIDsBinary(blocked); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("blocked decode allocs = %v, want <= 8", allocs)
	}
}
