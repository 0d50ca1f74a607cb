// Package idblock implements the blocked structural-identifier codec: a
// self-describing binary format that partitions a sorted (pre, post, depth)
// identifier set into fixed-size blocks, each preceded by a small summary
// header (count, min/max pre, min/max post, min/max depth, payload length).
//
// The headers are what make it possible to *operate on compressed data*:
// the structural joins of the LUI/2LUPI strategies can discard whole blocks
// that cannot contain ancestors or descendants of the other side before any
// varint decoding happens, so hot-path CPU scales with the answer rather
// than with the raw posting size. This is the classic IR skip-pointer
// structure (surveyed in the XML IR literature) applied to the paper's
// identifier sets, and the same compact-summaries-over-blobs idea Airphant
// uses against cloud object stores.
//
// Wire layout of one blob (all integers are varints):
//
//	magic      1 byte, 0xB2
//	checksum   4 bytes, little-endian FNV-1a over every following byte
//	nblocks    uvarint, >= 1
//	headers    nblocks times:
//	             count     uvarint (ids in the block, >= 1)
//	             minPre    zigzag varint
//	             preSpan   uvarint (maxPre - minPre)
//	             minPost   zigzag varint
//	             postSpan  uvarint (maxPost - minPost)
//	             minDepth  zigzag varint
//	             depthSpan uvarint (maxDepth - minDepth)
//	             plen      uvarint (payload bytes of the block, >= 1)
//	payloads   the blocks' payloads, concatenated in header order
//
// Every block payload starts with one format byte: 0x00 for a delta+varint
// triple stream with the delta base restarted at the block boundary, 0x01
// for a frame-of-reference bit-packed payload (see packed.go) whose columns
// decode in one batch pass. Either way a block decodes on its own. The
// encoder negotiates per block, keeping whichever encoding is smaller. The
// format is strictly validated: the checksum, the exact payload byte counts
// and inter-block pre ordering at parse time, and the header/content
// agreement at block-decode time. A blob that fails any parse check is not a
// blocked blob — the index codec then reads it as the headerless varint
// stream it writes for small sets, whose first byte may collide with the
// magic.
package idblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/xmltree"
)

// Magic2 is the first byte of a blocked blob. (The 2 is history: the format
// it superseded, with bare varint block payloads under another magic byte,
// is neither written nor read, and such a blob is ErrNotBlocked like any
// other.)
const Magic2 = 0xB2

// DefaultBlockSize is the number of identifiers per block used by the
// extraction pipeline: small enough that one block decodes in a short
// burst, large enough that headers stay a few percent of the payload.
const DefaultBlockSize = 128

// ErrNotBlocked reports a blob that does not carry (or fails to validate
// as) the blocked format; callers read such blobs as the headerless stream.
var ErrNotBlocked = errors.New("idblock: not a blocked blob")

// ErrCorrupt reports a block whose payload disagrees with its header — the
// blob passed the parse-time checks, so this is real corruption, not a
// headerless stream.
var ErrCorrupt = errors.New("idblock: corrupt block payload")

// Header is one block's summary: everything a join needs to decide whether
// the block can matter, without decoding its payload.
type Header struct {
	Count              int
	MinPre, MaxPre     int32
	MinPost, MaxPost   int32
	MinDepth, MaxDepth int32
}

// block pairs a header with its still-encoded payload bytes (nil when the
// block was constructed pre-decoded via FromIDs). plen carries the header's
// payload length between Parse's two passes.
type block struct {
	Header
	plen int
	data []byte
}

// Set is a parsed blocked identifier set: headers plus compressed payloads,
// with per-block decoding memoized — a Set cached by the posting cache
// keeps its decoded blocks across look-ups. A Set may span several blobs
// (see Merge); blocks are ordered by pre and their pre ranges do not
// overlap. Safe for concurrent use; decoded slices are shared and must be
// treated as immutable.
type Set struct {
	blocks []block
	total  int
	scoped bool // carved from an Arena: see BlockIn

	mu      sync.Mutex
	decoded [][]xmltree.NodeID
}

// Len returns the total identifier count, without decoding anything.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.total
}

// Blocks returns the number of blocks (zero on nil).
func (s *Set) Blocks() int {
	if s == nil {
		return 0
	}
	return len(s.blocks)
}

// Header returns the i-th block's summary.
func (s *Set) Header(i int) Header { return s.blocks[i].Header }

// PayloadBytes returns the total compressed payload size, for cache
// accounting.
func (s *Set) PayloadBytes() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.blocks {
		n += int64(len(s.blocks[i].data))
	}
	return n
}

// BlockIn decodes (and memoizes) the i-th block through the caller's
// arena. The returned slice is shared across callers and must not be
// mutated. When s was carved from an arena (Arena.Parse, Arena.FromIDs),
// the decoded block and the memo are carved from a, which must not be reset
// before the arena s came from; a set on the heap memoizes on the heap, and
// a is only its column scratch (nil decodes through a new one).
func (s *Set) BlockIn(i int, a *Arena) ([]xmltree.NodeID, error) {
	carve := a
	if !s.scoped {
		carve = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.decoded == nil {
		s.decoded = carve.memo(len(s.blocks))
	}
	if s.decoded[i] != nil {
		return s.decoded[i], nil
	}
	ids, err := appendBlock(carve.IDs(s.blocks[i].Count), s.blocks[i], a)
	if err != nil {
		return nil, err
	}
	s.decoded[i] = ids
	return ids, nil
}

// AppendBlockArena decodes the i-th block into dst without touching the
// memo, through the caller's arena: a packed payload unpacks its columns
// into it, so a loop over blocks reuses one arena and the steady-state
// decode allocates nothing. A nil arena decodes through a new one.
func (s *Set) AppendBlockArena(dst []xmltree.NodeID, i int, a *Arena) ([]xmltree.NodeID, error) {
	s.mu.Lock()
	memo := s.decoded
	s.mu.Unlock()
	if memo != nil && memo[i] != nil {
		return append(dst, memo[i]...), nil
	}
	return appendBlock(dst, s.blocks[i], a)
}

// All decodes every block and returns the concatenated identifiers in pre
// order, pre-sized from the headers' counts. It reads through the per-block
// memo but does not populate it: a full decode is typically one-shot, and
// skipping the memo keeps it at a single allocation (plus an arena's columns
// when payloads are packed).
func (s *Set) All() ([]xmltree.NodeID, error) {
	if s == nil {
		return nil, nil
	}
	out := make([]xmltree.NodeID, 0, s.total)
	var a Arena
	var err error
	for i := range s.blocks {
		if out, err = s.AppendBlockArena(out, i, &a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendBlock decodes one payload into dst and verifies it against its
// header: triple count, exact byte length, pre ordering, and the min/max
// summaries must all agree — that is what lets skip logic trust a header
// it never cross-checks against the payload. The payload's format byte
// selects the decoder; a nil arena is replaced by a new one when the payload
// needs it.
func appendBlock(dst []xmltree.NodeID, b block, a *Arena) ([]xmltree.NodeID, error) {
	if b.data == nil {
		return nil, fmt.Errorf("%w: block without payload", ErrCorrupt)
	}
	switch b.data[0] { // Parse guarantees plen >= 1
	case payloadPacked:
		if a == nil {
			a = new(Arena)
		}
		return appendBlockPacked(dst, b, a)
	case payloadVarint: // decoded below
	default:
		return nil, fmt.Errorf("%w: unknown payload format %#x", ErrCorrupt, b.data[0])
	}
	start := len(dst)
	dst, err := AppendVarintTriples(dst, b.data[1:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	ids := dst[start:]
	if len(ids) != b.Count {
		return nil, fmt.Errorf("%w: %d ids, header says %d", ErrCorrupt, len(ids), b.Count)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i].Pre < ids[i-1].Pre {
			return nil, fmt.Errorf("%w: block not sorted by pre", ErrCorrupt)
		}
	}
	if summarize(ids) != b.Header {
		return nil, fmt.Errorf("%w: block summary disagrees with header", ErrCorrupt)
	}
	return dst, nil
}

// AppendVarintTriples decodes a delta+varint triple stream — the headerless
// wire format and the varint block payload — appending to dst with the
// delta base at zero. The batch fast path peels two whole triples of
// single-byte varints per iteration (one bounds check, one combined
// comparison); longer encodings fall back through an inlined two-byte case
// to binary.Uvarint, so acceptance — including 64-bit sign-extended
// encodings round-tripping through the modular int32 arithmetic the codec
// fuzz targets pin — is bit-for-bit the one-varint-at-a-time behavior.
func AppendVarintTriples(dst []xmltree.NodeID, data []byte) ([]xmltree.NodeID, error) {
	var prevPre int32
	for {
		for len(data) >= 6 {
			if data[0]|data[1]|data[2]|data[3]|data[4]|data[5] >= 0x80 {
				break
			}
			prevPre += int32(data[0])
			dst = append(dst, xmltree.NodeID{Pre: prevPre, Post: int32(data[1]), Depth: int32(data[2])})
			prevPre += int32(data[3])
			dst = append(dst, xmltree.NodeID{Pre: prevPre, Post: int32(data[4]), Depth: int32(data[5])})
			data = data[6:]
		}
		if len(data) == 0 {
			return dst, nil
		}
		dPre, n := uvarint(data)
		if n <= 0 {
			return nil, errBadVarint
		}
		data = data[n:]
		post, n := uvarint(data)
		if n <= 0 {
			return nil, errBadVarint
		}
		data = data[n:]
		depth, n := uvarint(data)
		if n <= 0 {
			return nil, errBadVarint
		}
		data = data[n:]
		prevPre += int32(dPre)
		dst = append(dst, xmltree.NodeID{Pre: prevPre, Post: int32(post), Depth: int32(depth)})
	}
}

var errBadVarint = errors.New("idblock: bad varint triple")

// CountVarintTriples returns the number of triples in a delta+varint stream
// without decoding it, and fails on exactly the streams AppendVarintTriples
// rejects: a varint longer than ten bytes, a tenth byte above 1, a stream
// that ends inside a varint, or a varint count not divisible by three.
// Overlong encodings are accepted, as binary.Uvarint accepts them. It
// allocates nothing, so a reader can validate every stored stream and
// decode only the ones it uses.
func CountVarintTriples(data []byte) (int, error) {
	varints, run := 0, 0 // run counts the continuation bytes of the current varint
	for len(data) > 0 {
		// Eight bytes at a time while no varint can reach its tenth byte in
		// them: count the terminators (high bit clear) and carry the run of
		// continuation bytes at the word's end. Near the limit the byte step
		// below judges.
		if len(data) >= 8 {
			ends := ^binary.LittleEndian.Uint64(data) & 0x8080808080808080
			if ends == 0 && run+8 < binary.MaxVarintLen64 {
				run += 8
				data = data[8:]
				continue
			}
			if ends != 0 && run+bits.TrailingZeros64(ends)/8 < binary.MaxVarintLen64-1 {
				varints += bits.OnesCount64(ends)
				run = bits.LeadingZeros64(ends) / 8
				data = data[8:]
				continue
			}
		}
		b := data[0]
		data = data[1:]
		if b >= 0x80 {
			if run++; run == binary.MaxVarintLen64 {
				return 0, errBadVarint
			}
			continue
		}
		if run == binary.MaxVarintLen64-1 && b > 1 {
			return 0, errBadVarint
		}
		varints++
		run = 0
	}
	if run != 0 || varints%3 != 0 {
		return 0, errBadVarint
	}
	return varints / 3, nil
}

// uvarint is binary.Uvarint with the one- and two-byte encodings inlined;
// everything else (longer, overlong, truncated) delegates so the accept
// and reject behavior stays exactly the standard library's.
func uvarint(b []byte) (uint64, int) {
	if len(b) >= 2 {
		b0 := b[0]
		if b0 < 0x80 {
			return uint64(b0), 1
		}
		if b1 := b[1]; b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		}
		return binary.Uvarint(b)
	}
	if len(b) == 1 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// summarize computes the header of a non-empty identifier slice.
func summarize(ids []xmltree.NodeID) Header {
	h := Header{
		Count:  len(ids),
		MinPre: ids[0].Pre, MaxPre: ids[0].Pre,
		MinPost: ids[0].Post, MaxPost: ids[0].Post,
		MinDepth: ids[0].Depth, MaxDepth: ids[0].Depth,
	}
	for _, id := range ids[1:] {
		if id.Pre < h.MinPre {
			h.MinPre = id.Pre
		}
		if id.Pre > h.MaxPre {
			h.MaxPre = id.Pre
		}
		if id.Post < h.MinPost {
			h.MinPost = id.Post
		}
		if id.Post > h.MaxPost {
			h.MaxPost = id.Post
		}
		if id.Depth < h.MinDepth {
			h.MinDepth = id.Depth
		}
		if id.Depth > h.MaxDepth {
			h.MaxDepth = id.Depth
		}
	}
	return h
}

// IsSorted reports whether the ids are non-decreasing in pre — the encoder
// contract for the blocked format.
func IsSorted(ids []xmltree.NodeID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i].Pre < ids[i-1].Pre {
			return false
		}
	}
	return true
}

// EncodePacked encodes a pre-sorted identifier set into blocked blobs of
// roughly maxBlob bytes each, with per-block payload negotiation: each block
// keeps the smaller of its frame-of-reference bit-packed payload and its
// delta+varint payload (the format byte makes the choice self-describing, so
// blocks of one blob may mix). A blob always holds at least one whole block
// and a block at least one triple, so hostile caps are exceeded by at most
// one header plus one oversized triple — the same overshoot contract as the
// headerless codec. blockSize <= 0 selects DefaultBlockSize; maxBlob <= 0
// selects 1 MiB. The packed payloads are built through a's columns (a new
// arena's when a is nil). EncodePacked panics on unsorted input: the headers
// it would write could silently corrupt skip decisions, so callers gate on
// IsSorted and fall back to the headerless codec.
func EncodePacked(ids []xmltree.NodeID, blockSize, maxBlob int, a *Arena) [][]byte {
	if len(ids) == 0 {
		return nil
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if maxBlob <= 0 {
		maxBlob = 1 << 20
	}
	if !IsSorted(ids) {
		panic("idblock: EncodePacked on unsorted identifiers")
	}
	if a == nil {
		a = new(Arena)
	}

	// Cut the set into blocks: at most blockSize ids each, and a payload
	// that stops growing at the blob cap so single-block blobs stay near it.
	// Cut decisions are made on the varint size, which is what the cap
	// overshoot contract is stated in; the packed alternative only ever
	// shrinks a block after the cut.
	type cut struct {
		header  Header
		payload []byte
	}
	var cuts []cut
	var tmp [3 * binary.MaxVarintLen64]byte
	for start := 0; start < len(ids); {
		var payload []byte
		var prevPre int32
		end := start
		for end < len(ids) && end-start < blockSize {
			id := ids[end]
			n := binary.PutUvarint(tmp[:], uint64(id.Pre-prevPre))
			n += binary.PutUvarint(tmp[n:], uint64(id.Post))
			n += binary.PutUvarint(tmp[n:], uint64(id.Depth))
			if len(payload) > 0 && len(payload)+n > maxBlob {
				break
			}
			payload = append(payload, tmp[:n]...)
			prevPre = id.Pre
			end++
		}
		h := summarize(ids[start:end])
		wPre, wPost, wDepth := headerWidths(h)
		packable := wPre|wPost|wDepth != 0 || h.Count <= maxZeroSpanCount
		if ps := packedPayloadSize(h); packable && ps < 1+len(payload) {
			payload = packPayload(make([]byte, 0, ps), ids[start:end], h, a)
		} else {
			payload = append([]byte{payloadVarint}, payload...)
		}
		cuts = append(cuts, cut{header: h, payload: payload})
		start = end
	}

	// Pack whole blocks into blobs under the cap (6 bytes cover magic,
	// checksum and a small nblocks varint).
	var blobs [][]byte
	for i := 0; i < len(cuts); {
		var hdrs []byte
		var nblocks, bodyLen int
		for j := i; j < len(cuts); j++ {
			hb := appendHeader(nil, cuts[j].header, len(cuts[j].payload))
			if nblocks > 0 && 6+len(hdrs)+len(hb)+bodyLen+len(cuts[j].payload) > maxBlob {
				break
			}
			hdrs = append(hdrs, hb...)
			bodyLen += len(cuts[j].payload)
			nblocks++
		}
		var nb [binary.MaxVarintLen64]byte
		nbLen := binary.PutUvarint(nb[:], uint64(nblocks))
		body := make([]byte, 0, nbLen+len(hdrs)+bodyLen)
		body = append(body, nb[:nbLen]...)
		body = append(body, hdrs...)
		for j := i; j < i+nblocks; j++ {
			body = append(body, cuts[j].payload...)
		}
		blob := make([]byte, 0, 5+len(body))
		blob = append(blob, Magic2)
		var ck [4]byte
		binary.LittleEndian.PutUint32(ck[:], fnv1a(body))
		blob = append(blob, ck[:]...)
		blob = append(blob, body...)
		blobs = append(blobs, blob)
		i += nblocks
	}
	return blobs
}

// appendHeader serializes one block header followed by its payload length.
func appendHeader(dst []byte, h Header, plen int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	put(uint64(h.Count))
	put(zigzag32(h.MinPre))
	put(uint64(int64(h.MaxPre) - int64(h.MinPre)))
	put(zigzag32(h.MinPost))
	put(uint64(int64(h.MaxPost) - int64(h.MinPost)))
	put(zigzag32(h.MinDepth))
	put(uint64(int64(h.MaxDepth) - int64(h.MinDepth)))
	put(uint64(plen))
	return dst
}

func zigzag32(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

func unzigzag32(u uint64) (int32, bool) {
	if u > 0xffffffff {
		return 0, false
	}
	x := uint32(u)
	return int32(x>>1) ^ -int32(x&1), true
}

// addSpan returns min + span as an int32, reporting overflow.
func addSpan(min int32, span uint64) (int32, bool) {
	if span > 1<<32 {
		return 0, false
	}
	v := int64(min) + int64(span)
	if v > int64(1<<31-1) {
		return 0, false
	}
	return int32(v), true
}

// Looks reports whether the blob starts like a blocked blob; only Parse
// knows for sure.
func Looks(blob []byte) bool {
	return len(blob) > 5 && blob[0] == Magic2
}

// Parse validates a blocked blob and returns its Set without decoding any
// block payload: the checksum is verified (one byte scan, no varint work),
// every header is decoded and range-checked, blocks must be in pre order
// with non-overlapping ranges, and the payload lengths must cover the
// remaining bytes exactly. Any failure returns an error wrapping
// ErrNotBlocked, which callers read as "decode as a headerless stream". The
// checksum makes a false positive on a headerless stream that merely starts
// with the magic byte a 2^-32 event on top of the structural checks.
func Parse(blob []byte) (*Set, error) {
	return (*Arena)(nil).Parse(blob)
}

// Parse is the package's Parse with the set and its blocks carved from a
// (on the heap when a is nil).
func (a *Arena) Parse(blob []byte) (*Set, error) {
	if !Looks(blob) {
		return nil, ErrNotBlocked
	}
	want := binary.LittleEndian.Uint32(blob[1:5])
	body := blob[5:]
	if fnv1a(body) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrNotBlocked)
	}
	nblocks, n := binary.Uvarint(body)
	if n <= 0 || nblocks == 0 || nblocks > uint64(len(body)) {
		return nil, fmt.Errorf("%w: bad block count", ErrNotBlocked)
	}
	body = body[n:]

	s := a.set()
	s.blocks = a.blockSlice(int(nblocks))[:0]
	var payloadTotal uint64
	for b := uint64(0); b < nblocks; b++ {
		var raw [8]uint64
		for i := range raw {
			v, n := binary.Uvarint(body)
			if n <= 0 {
				return nil, fmt.Errorf("%w: truncated header", ErrNotBlocked)
			}
			raw[i] = v
			body = body[n:]
		}
		// Packed payloads legitimately go far below a byte per id, so the
		// blob length does not bound a count here; checkPayloadBound bounds
		// it against the payload kind below, after the payloads are sliced.
		if raw[0] == 0 || raw[0] > 1<<31 {
			return nil, fmt.Errorf("%w: bad block id count", ErrNotBlocked)
		}
		h := Header{Count: int(raw[0])}
		var ok bool
		if h.MinPre, ok = unzigzag32(raw[1]); !ok {
			return nil, fmt.Errorf("%w: pre out of range", ErrNotBlocked)
		}
		if h.MaxPre, ok = addSpan(h.MinPre, raw[2]); !ok {
			return nil, fmt.Errorf("%w: pre span out of range", ErrNotBlocked)
		}
		if h.MinPost, ok = unzigzag32(raw[3]); !ok {
			return nil, fmt.Errorf("%w: post out of range", ErrNotBlocked)
		}
		if h.MaxPost, ok = addSpan(h.MinPost, raw[4]); !ok {
			return nil, fmt.Errorf("%w: post span out of range", ErrNotBlocked)
		}
		if h.MinDepth, ok = unzigzag32(raw[5]); !ok {
			return nil, fmt.Errorf("%w: depth out of range", ErrNotBlocked)
		}
		if h.MaxDepth, ok = addSpan(h.MinDepth, raw[6]); !ok {
			return nil, fmt.Errorf("%w: depth span out of range", ErrNotBlocked)
		}
		if raw[7] < 1 || raw[7] > uint64(len(blob)) {
			return nil, fmt.Errorf("%w: payload length out of range", ErrNotBlocked)
		}
		if len(s.blocks) > 0 && h.MinPre < s.blocks[len(s.blocks)-1].MaxPre {
			return nil, fmt.Errorf("%w: blocks out of pre order", ErrNotBlocked)
		}
		payloadTotal += raw[7]
		s.blocks = append(s.blocks, block{Header: h, plen: int(raw[7])})
		s.total += h.Count
	}
	if payloadTotal != uint64(len(body)) {
		return nil, fmt.Errorf("%w: payload length mismatch", ErrNotBlocked)
	}
	off := 0
	for i := range s.blocks {
		plen := s.blocks[i].plen
		s.blocks[i].data = body[off : off+plen : off+plen]
		off += plen
	}
	for i := range s.blocks {
		if err := checkPayloadBound(&s.blocks[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fnv1a is the 32-bit FNV-1a checksum.
func fnv1a(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// FromIDs wraps an already-decoded, pre-sorted identifier slice as a
// single-block Set, so code paths that only have plain slices (the SimpleDB
// text codec, tests) feed the same skip-aware kernels. The slice is
// retained and must not be mutated afterwards; nil is returned for an empty
// slice.
func FromIDs(ids []xmltree.NodeID) *Set {
	return (*Arena)(nil).FromIDs(ids)
}

// FromIDs is the package's FromIDs with the set carved from a (on the heap
// when a is nil). The set retains ids, which must live as long as a's
// carvings when a is not nil.
func (a *Arena) FromIDs(ids []xmltree.NodeID) *Set {
	if len(ids) == 0 {
		return nil
	}
	if !IsSorted(ids) {
		panic("idblock: FromIDs on unsorted identifiers")
	}
	s := a.set()
	s.blocks = a.blockSlice(1)
	s.blocks[0].Header = summarize(ids)
	s.total = len(ids)
	s.decoded = a.memo(1)
	s.decoded[0] = ids
	return s
}

// Merge combines the Sets parsed from the blobs of one (key, URI) entry
// into a single pre-ordered Set. It succeeds when each segment starts after
// the previous one ends — always the case for the write path, which splits
// one sorted list contiguously across items, and never for a segment stored
// twice. ok=false means the caller must fall back to
// decode-everything-and-sort.
func Merge(sets []*Set) (merged *Set, ok bool) {
	if len(sets) == 0 {
		return nil, true
	}
	if len(sets) == 1 {
		return sets[0], true
	}
	order := make([]*Set, len(sets))
	copy(order, sets)
	// Insertion sort by first block's MinPre: segment counts are tiny.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].blocks[0].MinPre < order[j-1].blocks[0].MinPre; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := &Set{}
	var prevMax int32
	for i, s := range order {
		if i > 0 && s.blocks[0].MinPre <= prevMax {
			return nil, false
		}
		out.blocks = append(out.blocks, s.blocks...)
		out.total += s.total
		prevMax = s.blocks[len(s.blocks)-1].MaxPre
	}
	return out, true
}
