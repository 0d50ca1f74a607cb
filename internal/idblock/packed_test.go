package idblock

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

// idsWithWidth builds a sorted identifier set whose pre, post and depth
// spans need exactly w bits per offset (w=0 means constant columns).
func idsWithWidth(r *rand.Rand, n, w int) []xmltree.NodeID {
	var span int64
	if w > 0 {
		span = int64(uint64(1)<<w - 1)
	}
	// Wide spans need a base that keeps min+span inside int32: the full
	// 32-bit span only fits anchored at the bottom of the int32 range.
	base := int64(7)
	if base+span > 1<<31-1 {
		base = (1<<31 - 1) - span
	}
	ids := make([]xmltree.NodeID, n)
	for i := range ids {
		var pre, post, depth int64
		if w > 0 && n > 1 {
			pre = r.Int63n(span + 1)
			post = r.Int63n(span + 1)
			depth = r.Int63n(span + 1)
		}
		ids[i] = xmltree.NodeID{Pre: int32(base + pre), Post: int32(base + post), Depth: int32(base + depth)}
	}
	// Force the spans to be attained so the width is exactly w.
	ids[0].Pre, ids[0].Post, ids[0].Depth = int32(base), int32(base), int32(base)
	last := &ids[n-1]
	last.Pre, last.Post, last.Depth = int32(base+span), int32(base+span), int32(base+span)
	sortByPre(ids)
	return ids
}

func sortByPre(ids []xmltree.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j].Pre < ids[j-1].Pre; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// outlierIDs builds a sorted set on which the encoder's negotiation keeps
// the varint payload: components that fit one varint byte, except every
// eighth post, which forces a 29-bit packed column on its whole block.
func outlierIDs(n int) []xmltree.NodeID {
	ids := make([]xmltree.NodeID, n)
	for i := range ids {
		ids[i] = xmltree.NodeID{Pre: int32(i + 1), Post: int32(i % 100), Depth: int32(1 + i%5)}
		if i%8 == 0 {
			ids[i].Post = 1 << 28
		}
	}
	return ids
}

// TestPackedRoundTripWidths pins the packed round trip across the bit
// widths and block sizes the issue calls out, plus the power-of-two kernel
// widths.
func TestPackedRoundTripWidths(t *testing.T) {
	r := rand.New(rand.NewSource(811))
	for _, w := range []int{0, 1, 2, 4, 7, 8, 16, 17, 31, 32} {
		for _, bs := range []int{1, 3, 128} {
			for _, n := range []int{1, 3, 129, 1000} {
				ids := idsWithWidth(r, n, w)
				packed := EncodePacked(ids, bs, 1<<20)
				var gotP []xmltree.NodeID
				for _, blob := range packed {
					s, err := Parse(blob)
					if err != nil {
						t.Fatalf("w=%d bs=%d n=%d: Parse packed: %v", w, bs, n, err)
					}
					all, err := s.All()
					if err != nil {
						t.Fatalf("w=%d bs=%d n=%d: decode packed: %v", w, bs, n, err)
					}
					gotP = append(gotP, all...)
				}
				if !reflect.DeepEqual(gotP, ids) {
					t.Fatalf("w=%d bs=%d n=%d: packed round trip mismatch", w, bs, n)
				}
			}
		}
	}
}

// TestPackedColKernels round-trips every width 0..32 through the raw
// pack/unpack kernels at awkward lengths (tail handling).
func TestPackedColKernels(t *testing.T) {
	r := rand.New(rand.NewSource(812))
	for w := 0; w <= 32; w++ {
		for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 128} {
			vals := make([]uint32, n)
			var max uint64 = 1
			if w > 0 {
				max = 1 << w
			}
			for i := range vals {
				vals[i] = uint32(r.Int63n(int64(max)))
			}
			col := appendPackedCol(nil, vals, w)
			if len(col) != packedBytes(n, w) {
				t.Fatalf("w=%d n=%d: col is %d bytes, want %d", w, n, len(col), packedBytes(n, w))
			}
			got := make([]uint32, n)
			unpackCol(got, col, w)
			if !reflect.DeepEqual(got, vals) {
				t.Fatalf("w=%d n=%d: kernel round trip mismatch", w, n)
			}
		}
	}
}

// TestEncodePackedNegotiation checks the per-block size negotiation: wide
// random sets pack, and a tiny set whose varint stream is no larger keeps
// the varint payload.
func TestEncodePackedNegotiation(t *testing.T) {
	ids := randomSortedIDs(rand.New(rand.NewSource(813)), 1000)
	for _, s := range parseAll(t, EncodePacked(ids, DefaultBlockSize, 1<<20)) {
		for i := range s.blocks {
			if s.blocks[i].data[0] != payloadPacked {
				t.Fatalf("block %d of a wide random set kept the varint payload", i)
			}
		}
	}

	// One triple with zero spans: 4 packed bytes do not beat 3 varint bytes
	// plus the format byte, so negotiation must keep varint.
	one := []xmltree.NodeID{{Pre: 1, Post: 1, Depth: 1}}
	blob := EncodePacked(one, 1, 1<<20)[0]
	s, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.blocks[0].data[0] != payloadVarint {
		t.Fatal("single-triple block did not keep the varint payload")
	}
	got, err := s.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("single-triple round trip mismatch")
	}
}

// TestPackedParseRejectsFlippedBits flips every byte of packed blobs at
// several block sizes: no flip may panic, be silently accepted with
// different contents, or decode to anything but the original set.
func TestPackedParseRejectsFlippedBits(t *testing.T) {
	r := rand.New(rand.NewSource(814))
	for _, bs := range []int{1, 3, 128} {
		ids := randomSortedIDs(r, 300)
		for _, blob := range EncodePacked(ids, bs, 1<<20) {
			for i := range blob {
				mut := append([]byte(nil), blob...)
				mut[i] ^= 0x40
				s, err := Parse(mut)
				if err != nil {
					continue // rejected at parse: fine
				}
				// The checksum makes parse-time acceptance of a flip next to
				// impossible; if it ever happens the decode must still fail
				// or produce the exact original ids.
				got, err := s.All()
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(got, ids[:len(got)]) {
					t.Fatalf("bs=%d: flipped byte %d accepted with wrong contents", bs, i)
				}
			}
		}
	}
}

// TestPackedCorruptPayloads hand-corrupts packed payloads behind a fixed
// checksum — the cases a bit flip cannot reach because the checksum guards
// them — and asserts block decode reports corruption.
func TestPackedCorruptPayloads(t *testing.T) {
	ids := idsWithWidth(rand.New(rand.NewSource(815)), 64, 7)
	blob := EncodePacked(ids, DefaultBlockSize, 1<<20)
	if len(blob) != 1 {
		t.Fatalf("want one blob, got %d", len(blob))
	}
	corrupt := func(name string, mutate func(payload []byte)) {
		s, err := Parse(blob[0])
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		// Reach into the parsed block and mutate a copy of its payload.
		b := s.blocks[0]
		data := append([]byte(nil), b.data...)
		mutate(data)
		b.data = data
		if _, err := appendBlock(nil, b, nil); err == nil {
			t.Errorf("%s: corrupt payload decoded without error", name)
		}
	}
	corrupt("width out of range", func(p []byte) { p[1] = 33 })
	corrupt("offset above span", func(p []byte) {
		// Max out the first post offset: with width 7 and a smaller true
		// span this pushes max above the header span.
		p[4+packedBytes(64, int(p[1]))] = 0x7f
	})
	corrupt("unknown format", func(p []byte) { p[0] = 0x7e })
}

// TestAppendBlockArenaZeroAllocs pins the steady-state decode of both
// payload kinds at zero allocations: a warmed arena plus a pre-sized
// destination buffer decode whole blocks with no per-op garbage.
func TestAppendBlockArenaZeroAllocs(t *testing.T) {
	for _, enc := range []struct {
		name string
		kind byte
		ids  []xmltree.NodeID
	}{
		{"packed", payloadPacked, randomSortedIDs(rand.New(rand.NewSource(816)), 1024)},
		{"varint", payloadVarint, outlierIDs(1024)},
	} {
		ids := enc.ids
		sets := parseAll(t, EncodePacked(ids, DefaultBlockSize, 1<<20))
		if kind := sets[0].blocks[0].data[0]; kind != enc.kind {
			t.Fatalf("%s: first block has payload kind %#x", enc.name, kind)
		}
		arena := &Arena{}
		dst := make([]xmltree.NodeID, 0, len(ids))
		allocs := testing.AllocsPerRun(100, func() {
			dst = dst[:0]
			for _, s := range sets {
				for i := 0; i < s.Blocks(); i++ {
					var err error
					dst, err = s.AppendBlockArena(dst, i, arena)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state block decode allocates %.1f/op, want 0", enc.name, allocs)
		}
		if !reflect.DeepEqual(dst, ids) {
			t.Errorf("%s: arena decode mismatch", enc.name)
		}
	}
}

// TestAppendVarintTriplesEquivalence checks the unrolled batch decoder
// against a reference one-varint-at-a-time decode on random and hostile
// streams (sign-extended 64-bit encodings, truncated tails).
func TestAppendVarintTriplesEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(817))
	ref := func(data []byte) ([]xmltree.NodeID, bool) {
		var out []xmltree.NodeID
		var prevPre int32
		for len(data) > 0 {
			var vals [3]uint64
			for i := range vals {
				v, n := uvarintRef(data)
				if n <= 0 {
					return nil, false
				}
				vals[i] = v
				data = data[n:]
			}
			prevPre += int32(vals[0])
			out = append(out, xmltree.NodeID{Pre: prevPre, Post: int32(vals[1]), Depth: int32(vals[2])})
		}
		return out, true
	}
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(64)
		data := make([]byte, n)
		r.Read(data)
		want, okWant := ref(data)
		got, err := AppendVarintTriples(nil, data)
		if okWant != (err == nil) {
			t.Fatalf("trial %d: acceptance mismatch: ref ok=%v err=%v", trial, okWant, err)
		}
		if okWant && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: decode mismatch", trial)
		}
	}
	// A sign-extended negative component: ten 0xFF-ish bytes.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 3, 4}
	want, okWant := ref(hostile)
	got, err := AppendVarintTriples(nil, hostile)
	if !okWant || err != nil {
		t.Fatalf("hostile stream: ref ok=%v err=%v", okWant, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hostile stream decode mismatch: got %v want %v", got, want)
	}
}

// uvarintRef is the stdlib decode the fast path must agree with.
func uvarintRef(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -(i + 1)
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
