package index

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Path-list compression, the improvement the paper's conclusion suggests:
// "Further compression of the paths in the LUP index could probably make
// it even more competitive."
//
// A key's paths share long prefixes (they all descend from the same
// document root), so a sorted path list front-codes well: each path is
// stored as the length of the prefix it shares with its predecessor plus
// the remaining suffix. Compressed blocks are self-describing — they start
// with a marker byte that no plain path can start with (paths always start
// with '/') — so readers decode transparently and compressed and plain
// entries can coexist in one table.

// pathBlockMarker distinguishes front-coded blocks from plain path values.
const pathBlockMarker = 0x01

// EncodePathsCompressed front-codes a path list into blocks of at most
// maxValue bytes. Paths are sorted first (the order is irrelevant to the
// LUP look-up, which treats the list as a set).
func EncodePathsCompressed(paths []string, maxValue int) [][]byte {
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	return frontCode(sorted, maxValue)
}

// frontCode front-codes a sorted path list, held as strings or as byte
// slices, into blocks of at most maxValue bytes.
func frontCode[P ~string | ~[]byte](sorted []P, maxValue int) [][]byte {
	if maxValue <= 0 {
		maxValue = 1 << 20
	}
	var blocks [][]byte
	var buf []byte
	var prev P
	var tmp [2 * binary.MaxVarintLen32]byte
	flush := func() {
		if len(buf) > 1 {
			blocks = append(blocks, buf)
		}
		buf = nil
		prev = prev[:0]
	}
	for _, p := range sorted {
		if buf == nil {
			buf = []byte{pathBlockMarker}
		}
		shared := commonPrefix(prev, p)
		n := binary.PutUvarint(tmp[:], uint64(shared))
		n += binary.PutUvarint(tmp[n:], uint64(len(p)-shared))
		entry := len(tmp[:n]) + len(p) - shared
		if len(buf)+entry > maxValue && len(buf) > 1 {
			flush()
			buf = []byte{pathBlockMarker}
			shared = 0
			n = binary.PutUvarint(tmp[:], 0)
			n += binary.PutUvarint(tmp[n:], uint64(len(p)))
		}
		buf = append(buf, tmp[:n]...)
		buf = append(buf, p[shared:]...)
		prev = p
	}
	flush()
	if len(blocks) == 0 {
		blocks = [][]byte{{pathBlockMarker}}
	}
	return blocks
}

func commonPrefix[P ~string | ~[]byte](a, b P) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// DecodePathValue decodes one stored path value: either a plain path
// string or a front-coded block. Each decoded path is assembled in one
// reused byte buffer and converted to a string once, so the decode costs a
// single allocation per path rather than the two a prefix+suffix string
// concatenation would.
func DecodePathValue(v []byte) ([]string, error) {
	if len(v) == 0 || v[0] != pathBlockMarker {
		return []string{string(v)}, nil
	}
	var out []string
	var buf []byte // previous path's bytes, truncated and extended in place
	rest := v[1:]
	for len(rest) > 0 {
		shared, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt path block (prefix length)")
		}
		rest = rest[n:]
		suffix, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("index: corrupt path block (suffix length)")
		}
		rest = rest[n:]
		// Compare in uint64: a hostile length like 1<<63 would wrap negative
		// under int() and slip past an int comparison, then panic in the
		// slice expression below (found by FuzzDecodePathValue).
		if shared > uint64(len(buf)) || suffix > uint64(len(rest)) {
			return nil, fmt.Errorf("index: corrupt path block (lengths out of range)")
		}
		buf = append(buf[:shared], rest[:suffix]...)
		rest = rest[suffix:]
		out = append(out, string(buf))
	}
	return out, nil
}

// ValidatePathValue structurally checks a stored path value without
// materializing any path string: plain values are always valid, and a
// front-coded block must walk cleanly with the same length guards as
// DecodePathValue. Read paths that retain raw values call this once at
// decode time, so corrupt blocks fail there — exactly where an eager
// decode would have failed — rather than surfacing later during matching.
func ValidatePathValue(v []byte) error {
	if len(v) == 0 || v[0] != pathBlockMarker {
		return nil
	}
	rest := v[1:]
	prevLen := uint64(0)
	for len(rest) > 0 {
		shared, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("index: corrupt path block (prefix length)")
		}
		rest = rest[n:]
		suffix, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("index: corrupt path block (suffix length)")
		}
		rest = rest[n:]
		if shared > prevLen || suffix > uint64(len(rest)) {
			return fmt.Errorf("index: corrupt path block (lengths out of range)")
		}
		prevLen = shared + suffix
		rest = rest[suffix:]
	}
	return nil
}
