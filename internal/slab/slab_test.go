package slab

import (
	"slices"
	"testing"
)

// fill writes a non-zero value into every slot of xs.
func fill(xs []int64) {
	for i := range xs {
		xs[i] = int64(i) + 1
	}
}

func allZero(xs []int64) bool {
	return !slices.ContainsFunc(xs, func(x int64) bool { return x != 0 })
}

// Take hands out zeroed slices of exactly the length asked for, whose
// capacity ends there too, so that an append cannot run into the next one.
func TestTakeExactAndZeroed(t *testing.T) {
	var c Chunks[int64]
	for _, n := range []int{1, 3, 8, 0, 20, 5} {
		xs := c.Take(n, 8)
		if len(xs) != n || cap(xs) != n {
			t.Fatalf("Take(%d): len %d cap %d", n, len(xs), cap(xs))
		}
		if !allZero(xs) {
			t.Fatalf("Take(%d) = %v, want zeroed", n, xs)
		}
		fill(xs)
	}
}

// Reset zeroes every slot handed out, in full chunks and in the last,
// partly used one, and the next Takes reuse that memory.
func TestResetClearsCarvedSlots(t *testing.T) {
	var c Chunks[int64]
	full := c.Take(8, 8)    // fills the first chunk
	partial := c.Take(5, 8) // a second chunk, three slots left
	fill(full)
	fill(partial)
	c.Reset(1 << 10)
	again, rest := c.Take(8, 8), c.Take(8, 8)
	if &again[0] != &full[0] || &rest[0] != &partial[0] {
		t.Fatal("Takes after Reset did not reuse the kept chunks")
	}
	if !allZero(again) || !allZero(rest) {
		t.Fatalf("after Reset: %v and %v, want zeroed", again, rest)
	}
}

// Reset keeps, in order, the chunks whose sizes fit in the bound, and drops
// the others.
func TestResetKeepsChunksWithinBound(t *testing.T) {
	var c Chunks[int64]
	c.Take(4, 4)
	c.Take(8, 8)
	c.Take(16, 16)
	c.Take(2, 2)
	c.Reset(14)
	var kept []int
	for _, ch := range c.list {
		kept = append(kept, len(ch))
	}
	if want := []int{4, 8, 2}; !slices.Equal(kept, want) {
		t.Fatalf("kept chunks of %v slots, want %v", kept, want)
	}
	c.Reset(0)
	if len(c.list) != 0 {
		t.Fatalf("Reset(0) kept %d chunks", len(c.list))
	}
	if xs := c.Take(3, 4); len(xs) != 3 || !allZero(xs) {
		t.Fatalf("Take after Reset(0) = %v", xs)
	}
}

// Bytes is what was handed out since the last Reset, not what is held.
func TestBytesCountsSinceReset(t *testing.T) {
	var c Chunks[int64]
	if c.Bytes() != 0 {
		t.Fatalf("zero value: %d bytes", c.Bytes())
	}
	c.Take(3, 64)
	c.Take(5, 64)
	if got := c.Bytes(); got != 8*8 {
		t.Fatalf("after 8 slots: %d bytes, want 64", got)
	}
	c.Reset(1 << 10)
	if got := c.Bytes(); got != 0 {
		t.Fatalf("after Reset: %d bytes, want 0", got)
	}
	c.Take(2, 64)
	if got := c.Bytes(); got != 2*8 {
		t.Fatalf("after Reset and 2 slots: %d bytes, want 16", got)
	}
}

// Take carves from the shortest free chunk that fits: after a Reset, short
// runs take the short chunks and a long run finds the long one, wherever it
// lies, instead of a new chunk.
func TestTakeFitsFreeChunks(t *testing.T) {
	var c Chunks[int64]
	c.Take(4, 4)
	c.Take(4, 4)
	long := c.Take(32, 4)
	c.Reset(1 << 10)
	short := c.Take(4, 4)
	again := c.Take(32, 4)
	if &again[0] != &long[0] {
		t.Fatal("a long Take after Reset did not reuse the long chunk")
	}
	if &short[0] == &long[0] {
		t.Fatal("a short Take used the long chunk")
	}
	if len(c.list) != 3 {
		t.Fatalf("%d chunks, want the 3 the first round made", len(c.list))
	}
}
