package idblock

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/slab"
	"repro/internal/xmltree"
)

// Frame-of-reference bit-packed block payloads (payload format byte 0x01).
// The block header already carries the per-block minima and spans, so the
// payload stores only fixed-width offsets against those minima, column by
// column:
//
//	fmt     1 byte, 0x01
//	wPre    1 byte, bit width of the pre offset column (0..32)
//	wPost   1 byte, likewise for post
//	wDepth  1 byte, likewise for depth
//	columns three byte-aligned LSB-first bit-packed columns of
//	        ceil(count*w/8) bytes each, offsets value[i] - min in block order
//
// Fixed widths are what make the decode a batch operation: a whole column
// unpacks in one pass through a width-specialized kernel (dedicated code for
// the power-of-two widths, a 64-bit-accumulator kernel for the rest) into a
// reusable arena, instead of one branchy varint loop per triple. Widths are
// derived from the header spans, so a column whose values are all equal
// costs zero payload bytes.

// payload format bytes, the first payload byte of every block.
const (
	payloadVarint = 0x00 // delta+varint triple stream
	payloadPacked = 0x01 // frame-of-reference bit-packed columns
)

// packedBytes returns the byte length of one packed column of n w-bit
// values.
func packedBytes(n, w int) int { return (n*w + 7) / 8 }

// bitsFor returns the minimal width that can hold v.
func bitsFor(v uint32) int { return bits.Len32(v) }

// Arena is reusable scratch for column-at-a-time block decoding: one grown
// uint32 buffer viewed as three columns. Callers that loop over blocks hold
// one arena of their own so steady-state decoding allocates nothing. An
// Arena must not be shared concurrently.
//
// An arena is also memory for sets that live no longer than a request
// (arena.go): Parse, FromIDs and IDs carve sets, their blocks and
// identifiers from it, and Reset clears them for the next request.
type Arena struct {
	buf []uint32

	sets   slab.Chunks[Set]
	blocks slab.Chunks[block]
	memos  slab.Chunks[[]xmltree.NodeID]
	ids    slab.Chunks[xmltree.NodeID]
}

// cols returns three n-wide column views over the arena, growing it as
// needed. The views alias the arena and are invalidated by the next call.
func (a *Arena) cols(n int) (pre, post, depth []uint32) {
	if cap(a.buf) < 3*n {
		a.buf = make([]uint32, 3*n)
	}
	b := a.buf[:3*n]
	return b[0:n:n], b[n : 2*n : 2*n], b[2*n : 3*n : 3*n]
}

// maxZeroSpanCount caps the id count of a packed block whose three spans
// are all zero (every triple identical): such a block packs to four bytes
// regardless of count, so without a cap a hostile blob could claim an
// enormous count against a tiny payload. The encoder's negotiation keeps
// the varint payload above the cap, so no legitimate blob ever trips it —
// every production writer cuts blocks at DefaultBlockSize anyway.
const maxZeroSpanCount = 2 * DefaultBlockSize

// headerWidths returns the three column bit widths a packed payload for
// this header must use. The widths are fully determined by the header
// spans, which is what lets Parse bound a hostile count before any decode
// allocation happens.
func headerWidths(h Header) (wPre, wPost, wDepth int) {
	return bitsFor(uint32(int64(h.MaxPre) - int64(h.MinPre))),
		bitsFor(uint32(int64(h.MaxPost) - int64(h.MinPost))),
		bitsFor(uint32(int64(h.MaxDepth) - int64(h.MinDepth)))
}

// packedPayloadSize returns the byte length packPayload would produce for a
// block with this header — the number the encoder compares against the
// varint alternative.
func packedPayloadSize(h Header) int {
	wPre, wPost, wDepth := headerWidths(h)
	return 4 +
		packedBytes(h.Count, wPre) +
		packedBytes(h.Count, wPost) +
		packedBytes(h.Count, wDepth)
}

// checkPayloadBound validates a block's payload kind against its
// header at parse time, before any decode-time allocation: a varint payload
// needs at least three bytes per triple, and a packed payload must carry
// exactly the column widths the header spans imply — so any block with a
// nonzero span has its count bounded linearly by its payload length, and
// the all-zero-span degenerate case is capped at maxZeroSpanCount.
func checkPayloadBound(b *block) error {
	data := b.data // Parse guarantees plen >= 1
	switch data[0] {
	case payloadVarint:
		if uint64(len(data)) < 1+3*uint64(b.Count) {
			return fmt.Errorf("%w: bad block id count", ErrNotBlocked)
		}
	case payloadPacked:
		if len(data) < 4 {
			return fmt.Errorf("%w: truncated packed payload", ErrNotBlocked)
		}
		wPre, wPost, wDepth := headerWidths(b.Header)
		if int(data[1]) != wPre || int(data[2]) != wPost || int(data[3]) != wDepth {
			return fmt.Errorf("%w: packed widths disagree with header", ErrNotBlocked)
		}
		n := uint64(b.Count)
		want := 4 + (n*uint64(wPre)+7)/8 + (n*uint64(wPost)+7)/8 + (n*uint64(wDepth)+7)/8
		if uint64(len(data)) != want {
			return fmt.Errorf("%w: packed payload length mismatch", ErrNotBlocked)
		}
		if wPre|wPost|wDepth == 0 && b.Count > maxZeroSpanCount {
			return fmt.Errorf("%w: bad block id count", ErrNotBlocked)
		}
	default:
		return fmt.Errorf("%w: unknown payload format %#x", ErrNotBlocked, data[0])
	}
	return nil
}

// packPayload appends the frame-of-reference payload of ids (whose summary
// is h) to dst, building the offset columns in the arena.
func packPayload(dst []byte, ids []xmltree.NodeID, h Header, a *Arena) []byte {
	n := len(ids)
	pre, post, depth := a.cols(n)
	for i, id := range ids {
		pre[i] = uint32(int64(id.Pre) - int64(h.MinPre))
		post[i] = uint32(int64(id.Post) - int64(h.MinPost))
		depth[i] = uint32(int64(id.Depth) - int64(h.MinDepth))
	}
	wPre, wPost, wDepth := headerWidths(h)
	dst = append(dst, payloadPacked, byte(wPre), byte(wPost), byte(wDepth))
	dst = appendPackedCol(dst, pre, wPre)
	dst = appendPackedCol(dst, post, wPost)
	dst = appendPackedCol(dst, depth, wDepth)
	return dst
}

// appendPackedCol appends vals bit-packed at width w, LSB-first: value i
// occupies bits [i*w, (i+1)*w) of the column, low bits in earlier bytes.
func appendPackedCol(dst []byte, vals []uint32, w int) []byte {
	if w == 0 {
		return dst
	}
	var acc uint64
	nbits := 0
	for _, v := range vals {
		acc |= uint64(v) << nbits
		nbits += w
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackCol unpacks len(dst) w-bit values from src, which the caller has
// verified to be exactly packedBytes(len(dst), w) bytes.
func unpackCol(dst []uint32, src []byte, w int) {
	switch w {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		unpack1(dst, src)
	case 2:
		unpack2(dst, src)
	case 4:
		unpack4(dst, src)
	case 8:
		for i := range dst {
			dst[i] = uint32(src[i])
		}
	case 16:
		for i := range dst {
			dst[i] = uint32(src[2*i]) | uint32(src[2*i+1])<<8
		}
	case 32:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
	default:
		unpackAny(dst, src, w)
	}
}

func unpack1(dst []uint32, src []byte) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		b := uint32(src[i>>3])
		dst[i] = b & 1
		dst[i+1] = b >> 1 & 1
		dst[i+2] = b >> 2 & 1
		dst[i+3] = b >> 3 & 1
		dst[i+4] = b >> 4 & 1
		dst[i+5] = b >> 5 & 1
		dst[i+6] = b >> 6 & 1
		dst[i+7] = b >> 7 & 1
	}
	for ; i < len(dst); i++ {
		dst[i] = uint32(src[i>>3]) >> (i & 7) & 1
	}
}

func unpack2(dst []uint32, src []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		b := uint32(src[i>>2])
		dst[i] = b & 3
		dst[i+1] = b >> 2 & 3
		dst[i+2] = b >> 4 & 3
		dst[i+3] = b >> 6 & 3
	}
	for ; i < len(dst); i++ {
		dst[i] = uint32(src[i>>2]) >> (2 * (i & 3)) & 3
	}
}

func unpack4(dst []uint32, src []byte) {
	i := 0
	for ; i+2 <= len(dst); i += 2 {
		b := uint32(src[i>>1])
		dst[i] = b & 15
		dst[i+1] = b >> 4
	}
	if i < len(dst) {
		dst[i] = uint32(src[i>>1]) & 15
	}
}

// unpackAny handles the non-power-of-two widths (and 17..31): each value is
// read with one unaligned 64-bit load at its byte offset — the shift is at
// most 7 bits and the width at most 31, so 38 bits always suffice — with a
// byte-assembled fallback once the 8-byte load window would overrun the
// column. The main loop is unrolled four wide to amortize bounds checks.
func unpackAny(dst []uint32, src []byte, w int) {
	mask := uint32(1)<<w - 1
	n := len(dst)
	bitpos := 0
	i := 0
	for ; i+4 <= n && (bitpos+3*w)>>3+8 <= len(src); i += 4 {
		b0, b1, b2, b3 := bitpos, bitpos+w, bitpos+2*w, bitpos+3*w
		dst[i] = uint32(binary.LittleEndian.Uint64(src[b0>>3:])>>(b0&7)) & mask
		dst[i+1] = uint32(binary.LittleEndian.Uint64(src[b1>>3:])>>(b1&7)) & mask
		dst[i+2] = uint32(binary.LittleEndian.Uint64(src[b2>>3:])>>(b2&7)) & mask
		dst[i+3] = uint32(binary.LittleEndian.Uint64(src[b3>>3:])>>(b3&7)) & mask
		bitpos += 4 * w
	}
	for ; i < n && bitpos>>3+8 <= len(src); i++ {
		dst[i] = uint32(binary.LittleEndian.Uint64(src[bitpos>>3:])>>(bitpos&7)) & mask
		bitpos += w
	}
	for ; i < n; i++ {
		off := bitpos >> 3
		v := uint64(0)
		for k := 0; k < 8 && off+k < len(src); k++ {
			v |= uint64(src[off+k]) << (8 * k)
		}
		dst[i] = uint32(v>>(bitpos&7)) & mask
		bitpos += w
	}
}

// appendBlockPacked decodes a frame-of-reference payload into dst through
// the arena and verifies it against the header. The verification is fused
// into the interleave pass — offsets must be non-decreasing in pre with the
// first at zero and the last at the pre span, and the post and depth
// columns must attain both zero and their spans — which is exactly as
// strong as re-summarizing the decoded block, without the second pass.
func appendBlockPacked(dst []xmltree.NodeID, b block, a *Arena) ([]xmltree.NodeID, error) {
	data := b.data
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: truncated packed payload", ErrCorrupt)
	}
	wPre, wPost, wDepth := int(data[1]), int(data[2]), int(data[3])
	if wPre > 32 || wPost > 32 || wDepth > 32 {
		return nil, fmt.Errorf("%w: packed width out of range", ErrCorrupt)
	}
	n := b.Count
	lpre, lpost, ldepth := packedBytes(n, wPre), packedBytes(n, wPost), packedBytes(n, wDepth)
	if len(data) != 4+lpre+lpost+ldepth {
		return nil, fmt.Errorf("%w: packed payload length mismatch", ErrCorrupt)
	}
	spanPre := uint32(int64(b.MaxPre) - int64(b.MinPre))
	spanPost := uint32(int64(b.MaxPost) - int64(b.MinPost))
	spanDepth := uint32(int64(b.MaxDepth) - int64(b.MinDepth))
	pre, post, depth := a.cols(n)
	unpackCol(pre, data[4:4+lpre], wPre)
	unpackCol(post, data[4+lpre:4+lpre+lpost], wPost)
	unpackCol(depth, data[4+lpre+lpost:], wDepth)
	if pre[0] != 0 || pre[n-1] != spanPre {
		return nil, fmt.Errorf("%w: block summary disagrees with header", ErrCorrupt)
	}
	minPost, maxPost := post[0], post[0]
	minDepth, maxDepth := depth[0], depth[0]
	prev := uint32(0)
	for i := 0; i < n; i++ {
		p := pre[i]
		if p < prev {
			return nil, fmt.Errorf("%w: block not sorted by pre", ErrCorrupt)
		}
		prev = p
		q, d := post[i], depth[i]
		if q < minPost {
			minPost = q
		} else if q > maxPost {
			maxPost = q
		}
		if d < minDepth {
			minDepth = d
		} else if d > maxDepth {
			maxDepth = d
		}
		dst = append(dst, xmltree.NodeID{
			Pre:   b.MinPre + int32(p),
			Post:  b.MinPost + int32(q),
			Depth: b.MinDepth + int32(d),
		})
	}
	if minPost != 0 || maxPost != spanPost || minDepth != 0 || maxDepth != spanDepth {
		return nil, fmt.Errorf("%w: block summary disagrees with header", ErrCorrupt)
	}
	return dst, nil
}
