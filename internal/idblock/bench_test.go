package idblock

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// BenchmarkDecodeBlockPacked measures whole-blob decode of the blocked
// format through the arena path; BenchmarkAppendVarintTriples below runs the
// varint kernel the bit-packed payload was built to beat.
func BenchmarkDecodeBlockPacked(b *testing.B) {
	ids := randomSortedIDs(rand.New(rand.NewSource(7)), 1<<16)
	blobs := EncodePacked(ids, DefaultBlockSize, 1<<20, nil)
	sets := make([]*Set, 0, len(blobs))
	var bytes int64
	for _, blob := range blobs {
		s, err := Parse(blob)
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, s)
		bytes += int64(len(blob))
	}
	arena := &Arena{}
	dst := make([]xmltree.NodeID, 0, len(ids))
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, s := range sets {
			for j := 0; j < s.Blocks(); j++ {
				var err error
				dst, err = s.AppendBlockArena(dst, j, arena)
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if len(dst) != len(ids) {
		b.Fatalf("decoded %d ids, want %d", len(dst), len(ids))
	}
}

// BenchmarkAppendVarintTriples measures the unrolled batch decoder over a
// headerless delta+varint stream (the small-set store format).
func BenchmarkAppendVarintTriples(b *testing.B) {
	stream, ids := benchStream()
	dst := make([]xmltree.NodeID, 0, len(ids))
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendVarintTriples(dst[:0], stream)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(dst) != len(ids) {
		b.Fatalf("decoded %d ids, want %d", len(dst), len(ids))
	}
}

// BenchmarkCountVarintTriples measures the validating count scan over the
// same stream BenchmarkAppendVarintTriples decodes: the cost a look-up pays
// for every stored headerless set it fetches but does not join.
func BenchmarkCountVarintTriples(b *testing.B) {
	stream, _ := benchStream()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountVarintTriples(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStream is a headerless stream of 65,536 random sorted identifiers.
func benchStream() ([]byte, []xmltree.NodeID) {
	ids := randomSortedIDs(rand.New(rand.NewSource(8)), 1<<16)
	var stream []byte
	var prevPre int32
	var tmp [3 * binary.MaxVarintLen64]byte
	for _, id := range ids {
		n := binary.PutUvarint(tmp[:], uint64(id.Pre-prevPre))
		n += binary.PutUvarint(tmp[n:], uint64(id.Post))
		n += binary.PutUvarint(tmp[n:], uint64(id.Depth))
		stream = append(stream, tmp[:n]...)
		prevPre = id.Pre
	}
	return stream, ids
}
