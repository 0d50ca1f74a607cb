package index

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/cloud/kv"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Native fuzz targets for the two value codecs of the index store. The
// invariants they pin:
//
//   - decoders never panic on arbitrary bytes — a corrupt store item must
//     surface as an error, not crash a query worker;
//   - decode(encode(x)) == x for every encodable input, across every blob
//     and block split (delta restarts, oversized values);
//   - whatever a decoder accepts, re-encoding and re-decoding it is stable
//     (the store can be rewritten from its own decoded contents).
//
// Seed corpora live under testdata/fuzz/<Target>/; `make fuzzsmoke` runs
// each target for a bounded wall-clock slice in CI.

// canonicalIDs turns arbitrary bytes into a valid EncodeIDsBinary input:
// identifiers with non-negative components, sorted by pre — the contract
// the extraction pipeline guarantees.
func canonicalIDs(data []byte) []xmltree.NodeID {
	var ids []xmltree.NodeID
	for i := 0; i+6 <= len(data); i += 6 {
		word := func(off int) int32 {
			return int32(uint16(data[i+off]) | uint16(data[i+off+1])<<8)
		}
		ids = append(ids, xmltree.NodeID{Pre: word(0), Post: word(2), Depth: word(4)})
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Pre != ids[b].Pre {
			return ids[a].Pre < ids[b].Pre
		}
		if ids[a].Post != ids[b].Post {
			return ids[a].Post < ids[b].Post
		}
		return ids[a].Depth < ids[b].Depth
	})
	return ids
}

func idsEqual(a, b []xmltree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func decodeAllBinary(t *testing.T, blobs [][]byte) []xmltree.NodeID {
	t.Helper()
	var out []xmltree.NodeID
	for _, b := range blobs {
		ids, err := DecodeIDsBinary(b)
		if err != nil {
			t.Fatalf("decoding just-encoded blob %x: %v", b, err)
		}
		out = append(out, ids...)
	}
	return out
}

// FuzzIDCodecRoundTrip: for any identifier set and any blob cap,
// encode-then-decode restores the set exactly, through every delta-restart
// split the cap forces.
func FuzzIDCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, 64)
	f.Add([]byte{1, 0, 1, 0, 1, 0}, 64)
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0, 4, 0, 2, 0, 5, 0, 6, 0, 2, 0}, 4)
	f.Add(bytes.Repeat([]byte{0xff}, 96), 7)
	f.Add(bytes.Repeat([]byte{9, 1, 7, 3, 5, 2}, 40), 1)
	f.Fuzz(func(t *testing.T, data []byte, maxBlob int) {
		ids := canonicalIDs(data)

		blobs := EncodeIDsBinary(ids, maxBlob)
		if got := decodeAllBinary(t, blobs); !idsEqual(got, ids) {
			t.Fatalf("binary round trip (maxBlob %d): got %v, want %v", maxBlob, got, ids)
		}
		if maxBlob > 0 {
			budget := maxBlob
			if budget < 3*10 { // one id can need three 10-byte uvarints
				budget = 3 * 10
			}
			for _, b := range blobs {
				if len(b) > budget {
					t.Fatalf("blob of %d bytes exceeds cap %d", len(b), budget)
				}
			}
		}

		values := EncodeIDsText(ids, maxBlob)
		var got []xmltree.NodeID
		for _, v := range values {
			part, err := DecodeIDsText(v)
			if err != nil {
				t.Fatalf("decoding just-encoded text %q: %v", v, err)
			}
			got = append(got, part...)
		}
		if !idsEqual(got, ids) {
			t.Fatalf("text round trip (maxValue %d): got %v, want %v", maxBlob, got, ids)
		}
	})
}

// FuzzDecodeIDsBinary: the binary decoder never panics, and anything it
// accepts survives re-encoding — including hostile blobs whose uvarints
// overflow int32, which round-trip through modular arithmetic. A headerless
// stream held raw by a look-up decodes to exactly the eager path's
// identifiers (checkRawPosting).
func FuzzDecodeIDsBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{0x80})                                                             // truncated uvarint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1}) // > int32
	f.Add(EncodeIDsBinary([]xmltree.NodeID{{Pre: 3, Post: 3, Depth: 2}, {Pre: 6, Post: 8, Depth: 3}}, 0)[0])
	f.Add([]byte{5, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1}) // a pre delta of -1: decodes unsorted
	f.Add([]byte{1, 1, 1, 1})                                  // not whole triples
	// Blocked-format seeds in both payload families (a set that packs, and
	// one whose block keeps the varint payload): a valid blob, a bit-flipped
	// copy (the checksum must bounce it to the stream decoder without a
	// panic), a truncated prefix, and the magic byte bare and with a
	// checksum that cannot match.
	for _, blocked := range [][]byte{
		EncodeIDs(genSortedIDs(64, 42), true, 0)[0],
		EncodeIDs(outlierIDs(64, 42), true, 0)[0],
	} {
		f.Add(blocked)
		flipped := append([]byte(nil), blocked...)
		flipped[len(flipped)/2] ^= 0x20
		f.Add(flipped)
		f.Add(blocked[:len(blocked)/2])
	}
	f.Add([]byte{0xB2})
	f.Add([]byte{0xB2, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, blob []byte) {
		ids, err := DecodeIDsBinary(blob)
		if parseBlocked(blob, nil) == nil {
			checkRawPosting(t, blob, ids, err)
		}
		if err != nil {
			return
		}
		// Whatever decoded must survive both writers the store uses: the
		// headerless stream and the blocked format (which falls back to the
		// stream on unsorted hostile decodes).
		for _, blobs := range [][][]byte{
			EncodeIDsBinary(ids, 0),
			EncodeIDs(ids, true, 0),
		} {
			if got := decodeAllBinary(t, blobs); !idsEqual(got, ids) {
				t.Fatalf("re-encode of accepted blob %x: got %v, want %v", blob, got, ids)
			}
		}
	})
}

// checkRawPosting holds a headerless stream the way a look-up holds it —
// one value under one URI, validated and counted but not decoded — and
// checks it against the eager path: the read fails exactly when the decode
// does, and the posting decodes to the identifiers the same set decodes to
// when it arrives as text, which always takes the eager path.
func checkRawPosting(t *testing.T, blob []byte, ids []xmltree.NodeID, decodeErr error) {
	t.Helper()
	item := func(v []byte) []kv.Item {
		return []kv.Item{{HashKey: "k", RangeKey: "r", Attrs: []kv.Attr{{Name: "d.xml", Values: []kv.Value{v}}}}}
	}
	lazy, err := decodeItems(item(blob), IDPosting, true)
	if (err == nil) != (decodeErr == nil) {
		t.Fatalf("stream %x: read err=%v, decode err=%v", blob, err, decodeErr)
	}
	if err != nil {
		return
	}
	var text []byte
	for _, v := range EncodeIDsText(ids, 0) {
		text = append(text, v...)
	}
	eager, err := decodeItems(item(text), IDPosting, false)
	if err != nil {
		t.Fatalf("text of accepted stream %x: %v", blob, err)
	}
	p, e := lazy["d.xml"], eager["d.xml"]
	if len(ids) > 0 && (p.raw == nil || p.wrapped.Load() != nil) {
		t.Fatalf("stream %x: a one-stream posting is not held raw", blob)
	}
	got, err := p.IDSet().All()
	if err != nil {
		t.Fatalf("stream %x: raw posting: %v", blob, err)
	}
	want, _ := e.IDSet().All()
	if !idsEqual(got, want) || p.IDCount() != e.IDCount() || p.IDSet().Len() != len(want) {
		t.Fatalf("stream %x: raw posting decoded %v (count %d), eager %v (count %d)", blob, got, p.IDCount(), want, e.IDCount())
	}
}

// FuzzDecodeIDsText: the text decoder never panics and is stable under
// re-encoding of whatever it accepts.
func FuzzDecodeIDsText(f *testing.F) {
	f.Add("")
	f.Add("(3,3,2)(6,8,3)")
	f.Add("(3,3")
	f.Add("(-1,-2,-3)")
	f.Add("(99999999999,0,0)")
	f.Fuzz(func(t *testing.T, v string) {
		ids, err := DecodeIDsText([]byte(v))
		if err != nil {
			return
		}
		var got []xmltree.NodeID
		for _, ev := range EncodeIDsText(ids, 0) {
			part, err := DecodeIDsText(ev)
			if err != nil {
				t.Fatalf("decoding just-encoded text %q: %v", ev, err)
			}
			got = append(got, part...)
		}
		if !idsEqual(got, ids) {
			t.Fatalf("re-encode of accepted text %q: got %v, want %v", v, got, ids)
		}
	})
}

// fuzzPaths splits fuzz bytes into a path list (newline-separated).
func fuzzPaths(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	return strings.Split(string(data), "\n")
}

func sortedPaths(paths []string) []string {
	out := append([]string(nil), paths...)
	sort.Strings(out)
	return out
}

func decodeAllPaths(t *testing.T, blocks [][]byte) []string {
	t.Helper()
	var out []string
	for _, b := range blocks {
		part, err := DecodePathValue(b)
		if err != nil {
			t.Fatalf("decoding just-encoded block %x: %v", b, err)
		}
		out = append(out, part...)
	}
	return out
}

// FuzzPathCodecRoundTrip: front-coding any path list at any block cap
// restores the same multiset (the encoder sorts, so compare sorted).
func FuzzPathCodecRoundTrip(f *testing.F) {
	f.Add([]byte(""), 64)
	f.Add([]byte("/site/regions/item\n/site/regions/item/name\n/site/people"), 16)
	f.Add([]byte("/a\n/a\n/a"), 4) // duplicates must survive
	f.Add([]byte("\n\n"), 1)       // empty paths, hostile cap
	f.Add([]byte("/long/shared/prefix/x\n/long/shared/prefix/y"), 1<<20)
	f.Fuzz(func(t *testing.T, data []byte, maxValue int) {
		paths := fuzzPaths(data)
		blocks := EncodePathsCompressed(paths, maxValue)
		got := decodeAllPaths(t, blocks)
		want := sortedPaths(paths)
		if len(got) != len(want) {
			t.Fatalf("round trip (maxValue %d): %d paths in, %d out", maxValue, len(want), len(got))
		}
		// Blocks decode in sorted order block by block; the concatenation
		// is the sorted list itself.
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip (maxValue %d) path %d: got %q, want %q", maxValue, i, got[i], want[i])
			}
		}
	})
}

// FuzzDecodePathValue: the path decoder never panics, whatever it accepts
// survives re-encoding as a multiset, the allocation-free structural
// validator agrees with it exactly, and the prefix-skip matcher agrees
// with decode-then-MatchPath on every accepted value.
func FuzzDecodePathValue(f *testing.F) {
	f.Add([]byte("/plain/path"))
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0x00, 0x02, '/', 'a'})
	f.Add([]byte{0x01, 0x05, 0x01, 'x'}) // shared > len(prev)
	f.Add([]byte{0x01, 0x00, 0xff, 'x'}) // suffix > rest
	// A front-coded block with deep shared prefixes — the shape the
	// prefix-skip matcher resumes from checkpoints on — plus one whose
	// shared run dies early for every extension.
	f.Add(EncodePathsCompressed([]string{
		"/ea/eb/ec/ename", "/ea/eb/ec/eprice", "/ea/eb/ed", "/ea/eb/ed/ename",
	}, 0)[0])
	f.Add(EncodePathsCompressed([]string{"/zz/ea", "/zz/eb", "/zz/ec/ed"}, 0)[0])
	// Fixed query paths for the matcher differential: child chain,
	// descendant skip, and a key whose escaping matters.
	matchers := [][]QueryStep{
		{{Axis: pattern.Child, Key: "ea"}, {Axis: pattern.Child, Key: "eb"}},
		{{Axis: pattern.Descendant, Key: "eb"}, {Axis: pattern.Descendant, Key: "ename"}},
		{{Axis: pattern.Descendant, Key: "a 07/04"}},
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		paths, err := DecodePathValue(v)
		if validErr := ValidatePathValue(v); (err == nil) != (validErr == nil) {
			t.Fatalf("value %x: DecodePathValue err=%v but ValidatePathValue err=%v", v, err, validErr)
		}
		if err != nil {
			return
		}
		for _, steps := range matchers {
			got, merr := NewPathMatcher(steps).MatchValue(v)
			if merr != nil {
				t.Fatalf("accepted value %x: MatchValue: %v", v, merr)
			}
			want := false
			for _, p := range paths {
				if MatchPath(steps, p) {
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("value %x steps %v: MatchValue=%v, MatchPath over decode=%v", v, steps, got, want)
			}
		}
		got := decodeAllPaths(t, EncodePathsCompressed(paths, 0))
		want := sortedPaths(paths)
		if len(got) != len(want) {
			t.Fatalf("re-encode of accepted value %x: %d paths, want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("re-encode of accepted value %x path %d: got %q, want %q", v, i, got[i], want[i])
			}
		}
	})
}
