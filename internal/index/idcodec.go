package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/idblock"
	"repro/internal/xmltree"
)

// Structural-ID set codecs. The LUI strategy concatenates a node's sorted
// identifiers into attribute values (Section 5.3). On DynamoDB the paper
// exploits binary values to store the set "compressed (encoded)"
// (Section 8.2); we use varint deltas on the pre components. SimpleDB
// forbids binary values, so its codec is plain text — one of the reasons
// the predecessor system [8] needed many more, larger items (Tables 7-8).
//
// Binary stores hold two formats, chosen by set size (blockedMinIDs). A
// small set is a headerless delta+varint triple stream (EncodeIDsBinary). A
// large one is a blocked blob (package idblock): per-block summary headers
// over bit-packed or varint payloads, so the join kernels can skip whole
// blocks without decoding. The decoder tells them apart by the blocked magic
// byte plus a checksum and strict structural validation, so a headerless
// stream whose first byte collides with the magic still decodes as a stream.

// ErrCorruptIDSet reports an undecodable identifier blob.
var ErrCorruptIDSet = errors.New("index: corrupt identifier set")

// EncodeIDsBinary encodes identifiers (sorted by pre) into blobs of at most
// maxBlob bytes. Each blob is independently decodable: the delta base
// restarts per blob, so a large set can split across store items.
func EncodeIDsBinary(ids []xmltree.NodeID, maxBlob int) [][]byte {
	_, blobs := appendIDsStream(nil, nil, ids, maxBlob)
	return blobs
}

// appendIDsStream is EncodeIDsBinary appending: the blobs' bytes go on buf
// and the blobs, capacity-limited sub-slices of it, on blobs.
func appendIDsStream(buf []byte, blobs [][]byte, ids []xmltree.NodeID, maxBlob int) ([]byte, [][]byte) {
	if maxBlob <= 0 {
		maxBlob = 1 << 20
	}
	// A triple takes three bytes at least and most take three to five: when
	// the set cannot fit, make room for four bytes a triple at once.
	if cap(buf)-len(buf) < 3*len(ids) {
		buf = slices.Grow(buf, 4*len(ids))
	}
	start := len(buf) // where the current blob begins
	var prevPre int32
	for _, id := range ids {
		at := len(buf)
		buf = appendTriple(buf, id.Pre-prevPre, id)
		if len(buf)-start > maxBlob && at > start {
			// The triple does not fit: close the blob before it and
			// re-encode it with a fresh delta base.
			blobs = append(blobs, buf[start:at:at])
			start = at
			buf = appendTriple(buf[:at], id.Pre, id)
		}
		prevPre = id.Pre
	}
	if len(buf) > start {
		blobs = append(blobs, buf[start:len(buf):len(buf)])
	}
	return buf, blobs
}

// appendTriple appends one identifier with its pre component given as a
// delta. A negative component sign-extends to a full 64-bit uvarint (10
// bytes): the encoder does not panic on such inputs, it round-trips them
// through the decoder's modular int32 arithmetic (the codec fuzz targets
// exercise this).
func appendTriple(buf []byte, pre int32, id xmltree.NodeID) []byte {
	buf = binary.AppendUvarint(buf, uint64(pre))
	buf = binary.AppendUvarint(buf, uint64(id.Post))
	return binary.AppendUvarint(buf, uint64(id.Depth))
}

// blockedMinIDs is the set size below which the blocked format is not
// worth its framing: magic, checksum and one header cost ~20 bytes, which
// dwarfs a handful of delta-varint triples (and a set that small decodes in
// nanoseconds anyway). Small sets — the long tail of per-document postings
// — are written headerless; the decoder accepts both, so the cut-off is a
// pure encoding choice.
const blockedMinIDs = 32

// DecodeIDsBinary decodes one binary blob in either binary format: blocked
// blobs are parsed, fully decoded and pre-sized from their block-header
// counts; anything else is a headerless stream.
func DecodeIDsBinary(blob []byte) ([]xmltree.NodeID, error) {
	if s := parseBlocked(blob, nil); s != nil {
		ids, err := s.All()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptIDSet, err)
		}
		return ids, nil
	}
	return decodeIDsStream(blob)
}

// parseBlocked returns the Set of a blocked blob, parsed into a (the heap
// when a is nil), or nil when the blob is a headerless stream. Parse
// failures mean "not the blocked format": a stream whose first delta byte
// happens to equal the magic.
func parseBlocked(blob []byte, a *idblock.Arena) *idblock.Set {
	if !idblock.Looks(blob) {
		return nil
	}
	s, err := a.Parse(blob)
	if err != nil {
		return nil
	}
	return s
}

// decodeIDsStream decodes a headerless delta+varint stream through the
// unrolled batch decoder. The output is pre-sized from the byte length — a
// triple is at least three bytes, so len/3 bounds the count — which keeps
// the decode at one allocation (the codec benchmarks assert this).
func decodeIDsStream(blob []byte) ([]xmltree.NodeID, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	ids, err := idblock.AppendVarintTriples(make([]xmltree.NodeID, 0, len(blob)/3), blob)
	if err != nil {
		return nil, ErrCorruptIDSet
	}
	return ids, nil
}

// EncodeIDsText encodes identifiers into text values of at most maxValue
// bytes each, e.g. "(3,3,2)(6,8,3)", the format SimpleDB can hold.
func EncodeIDsText(ids []xmltree.NodeID, maxValue int) [][]byte {
	if maxValue <= 0 {
		maxValue = 1 << 10
	}
	var values [][]byte
	var b strings.Builder
	for _, id := range ids {
		s := fmt.Sprintf("(%d,%d,%d)", id.Pre, id.Post, id.Depth)
		if b.Len()+len(s) > maxValue && b.Len() > 0 {
			values = append(values, []byte(b.String()))
			b.Reset()
		}
		b.WriteString(s)
	}
	if b.Len() > 0 {
		values = append(values, []byte(b.String()))
	}
	return values
}

// DecodeIDsText decodes one text value.
func DecodeIDsText(v []byte) ([]xmltree.NodeID, error) {
	s := string(v)
	var ids []xmltree.NodeID
	for len(s) > 0 {
		if s[0] != '(' {
			return nil, ErrCorruptIDSet
		}
		end := strings.IndexByte(s, ')')
		if end < 0 {
			return nil, ErrCorruptIDSet
		}
		parts := strings.Split(s[1:end], ",")
		if len(parts) != 3 {
			return nil, ErrCorruptIDSet
		}
		var vals [3]int64
		for i, p := range parts {
			x, err := strconv.ParseInt(p, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptIDSet, err)
			}
			vals[i] = x
		}
		ids = append(ids, xmltree.NodeID{Pre: int32(vals[0]), Post: int32(vals[1]), Depth: int32(vals[2])})
		s = s[end+1:]
	}
	return ids, nil
}

// DecodeIDs decodes a value in either codec, chosen by binaryIDs.
func DecodeIDs(v []byte, binaryIDs bool) ([]xmltree.NodeID, error) {
	if binaryIDs {
		return DecodeIDsBinary(v)
	}
	return DecodeIDsText(v)
}

// DecodeIDSet decodes one stored identifier value into its lazy blocked
// form when possible: a valid blocked blob returns its parsed Set — headers
// only, no payload decoded. Headerless and text values decode eagerly and
// are returned as a plain slice with a nil Set.
func DecodeIDSet(v []byte, binaryIDs bool) (*idblock.Set, []xmltree.NodeID, error) {
	c, err := classifyIDValue(v, binaryIDs, nil)
	if err != nil {
		return nil, nil, err
	}
	if c.stream != nil {
		return nil, mustDecodeStream(c.stream, c.n, nil), nil
	}
	return c.set, c.ids, nil
}

// idValue is one stored identifier value, classified. At most one of set (a
// blocked blob, headers parsed), stream (a validated headerless stream of n
// triples) and ids (a decoded text value) is set; an empty value sets none.
type idValue struct {
	set    *idblock.Set
	stream []byte
	n      int
	ids    []xmltree.NodeID
}

// classifyIDValue validates one stored identifier value and tells its
// format, parsing a blocked blob into a (the heap when a is nil). It is the
// one place that classifies stored values: a headerless stream is counted,
// not decoded, so the caller chooses when to decode it.
func classifyIDValue(v []byte, binaryIDs bool, a *idblock.Arena) (idValue, error) {
	if !binaryIDs {
		ids, err := DecodeIDsText(v)
		return idValue{ids: ids}, err
	}
	if s := parseBlocked(v, a); s != nil {
		return idValue{set: s}, nil
	}
	n, err := idblock.CountVarintTriples(v)
	if err != nil {
		return idValue{}, ErrCorruptIDSet
	}
	if n == 0 {
		return idValue{}, nil
	}
	return idValue{stream: v, n: n}, nil
}

// mustDecodeStream decodes a stream CountVarintTriples accepted with n
// triples into an exact-size slice, carved from a (the heap when a is nil).
func mustDecodeStream(v []byte, n int, a *idblock.Arena) []xmltree.NodeID {
	ids, err := idblock.AppendVarintTriples(a.IDs(n), v)
	if err != nil || len(ids) != n {
		panic(fmt.Sprintf("index: validated identifier stream of %d triples decoded to %d: %v", n, len(ids), err))
	}
	return ids
}

// EncodeIDs encodes a sorted identifier set in the codec chosen by
// binaryIDs, splitting values at maxValue bytes. Binary stores get the
// blocked format (package idblock: summary headers over bit-packed or
// delta+varint block payloads, so that look-ups can skip blocks without
// decoding them), or the headerless stream for small sets.
func EncodeIDs(ids []xmltree.NodeID, binaryIDs bool, maxValue int) [][]byte {
	_, values := appendIDs(nil, nil, ids, binaryIDs, maxValue, nil)
	return values
}

// appendIDs is EncodeIDs appending: a headerless stream's bytes go on buf,
// and the values, for a stream capacity-limited sub-slices of buf, on
// values. Blocked and text values bring their own bytes; a blocked value's
// packed payloads are built through a (a new arena when a is nil). Unsorted
// inputs, which only hostile re-encodes of corrupt blobs produce, never the
// extraction pipeline, are written as the headerless stream.
func appendIDs(buf []byte, values [][]byte, ids []xmltree.NodeID, binaryIDs bool, maxValue int, a *idblock.Arena) ([]byte, [][]byte) {
	switch {
	case !binaryIDs:
		return buf, append(values, EncodeIDsText(ids, maxValue)...)
	case len(ids) >= blockedMinIDs && idblock.IsSorted(ids):
		return buf, append(values, idblock.EncodePacked(ids, idblock.DefaultBlockSize, maxValue, a)...)
	}
	return appendIDsStream(buf, values, ids, maxValue)
}
