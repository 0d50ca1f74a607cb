// Package slab is memory whose lifetime is one request: slices carved at
// exact size from chunks that the request's owner clears and keeps for the
// next request, instead of leaving them to the collector. The evaluator's
// rows (package engine) and the index look-up's decode (package index, with
// package idblock's Arena) are carved this way, and an Idle list keeps the
// memory of the requests that are not running.
package slab

import (
	"sync"
	"unsafe"
)

// Chunks is memory handed out in slices of exact size: list[:used] are the
// chunks carved from, cur the unused rest of the last of them, and the
// others free. The zero value is ready for use. Chunks is not safe for
// concurrent use.
type Chunks[T any] struct {
	list   [][]T
	used   int
	cur    []T
	carved int // slots handed out since the last Reset
}

// Take returns n zeroed slots with capacity n. When the current chunk is too
// short it carves from the shortest free chunk that is long enough, so that
// a long run finds the long chunk an earlier request left and short runs do
// not use it up, and from a new chunk of at least least slots when no free
// one is.
func (c *Chunks[T]) Take(n, least int) []T {
	if n > len(c.cur) {
		fit := -1
		for i := c.used; i < len(c.list); i++ {
			if l := len(c.list[i]); l >= n && (fit < 0 || l < len(c.list[fit])) {
				fit = i
			}
		}
		if fit < 0 {
			c.list = append(c.list, make([]T, max(n, least)))
			fit = len(c.list) - 1
		}
		c.list[c.used], c.list[fit] = c.list[fit], c.list[c.used]
		c.cur = c.list[c.used]
		c.used++
	}
	x := c.cur[:n:n]
	c.cur = c.cur[n:]
	c.carved += n
	return x
}

// Bytes returns the size of the slots handed out since the last Reset.
func (c *Chunks[T]) Bytes() int64 {
	var zero T
	return int64(c.carved) * int64(unsafe.Sizeof(zero))
}

// Reset clears the chunks carved from, the last as far as it was, and
// keeps, in order, those that fit in bound slots. Every slice Take handed
// out is invalid afterwards.
func (c *Chunks[T]) Reset(bound int) {
	for i, ch := range c.list[:c.used] {
		if i == c.used-1 {
			ch = ch[:len(ch)-len(c.cur)]
		}
		clear(ch)
	}
	kept, slots := 0, 0
	for _, ch := range c.list {
		if slots+len(ch) <= bound {
			c.list[kept] = ch
			kept++
			slots += len(ch)
		}
	}
	clear(c.list[kept:])
	c.list, c.used, c.cur, c.carved = c.list[:kept], 0, nil, 0
}

// Idle holds the memory of requests that are not running, for the owner that
// runs them: Get takes the memory last put back, or a new zero T when all of
// it is out, and Put puts it back once its request is done. The list grows
// to the most requests that ran at once and keeps what it holds until its
// owner goes. The zero value is ready for use; it is safe for concurrent
// use.
type Idle[T any] struct {
	mu   sync.Mutex
	list []*T
}

// Get returns memory that no running request holds.
func (l *Idle[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.list)
	if n == 0 {
		return new(T)
	}
	x := l.list[n-1]
	l.list[n-1], l.list = nil, l.list[:n-1]
	return x
}

// Put returns x, which its request no longer reads, to the list.
func (l *Idle[T]) Put(x *T) {
	l.mu.Lock()
	l.list = append(l.list, x)
	l.mu.Unlock()
}
