package kv

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"unsafe"
)

// This file is the physical layout of a MemStore table. Items are kept
// encoded, one record each, in append-only byte chunks; per hash key a list
// of record references is kept sorted by range key. A record is
//
//	u32le len(body) | u32le crc32c(body) | body
//	body := len(range key) range key | size | #attrs | #values | attr*
//	attr := name id | #values | (len value)*
//
// with every count and length a uvarint. size is Item.Size() as billed; the
// modeled figures the store reports (TableBytes, latencies, ledger records)
// all come from it, never from the record or chunk lengths.
//
// Nothing in a chunk is written twice: a put appends, an overwrite or delete
// only drops the reference and counts the old record dead, and a rewrite
// copies the live records into fresh chunks and lets the old ones go. That
// is what lets a Get hand out views (Values and RangeKeys that alias the
// chunk) without a copy and without holding the lock while they are read.
// The collector sees the chunks (no pointers inside), one reference slice
// per hash key and the interned attribute names.

const (
	recPrefix = 8 // body length and checksum

	// Chunks grow with the table from chunkMin to chunkMax, so a test's
	// three-item table costs 4 KB and the gate corpus about a hundred chunks.
	// A record larger than chunkMax gets a chunk of its own.
	chunkMin = 4 << 10
	chunkMax = 1 << offsetBits

	// A table is rewritten once its dead bytes reach its live bytes, which
	// bounds the arena at twice the live data and amortises the copy over
	// at least as many written bytes. Below one chunk it is not worth it.
	rewriteFloor = chunkMin
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ref addresses one record and carries the head of its range key: from the
// top, the key's first three bytes (zero-padded), the chunk index, and the
// byte offset in the chunk. References therefore sort like their range keys
// as far as three bytes tell, and a binary search over a group reads a
// record, a cache miss each, only where the prefixes tie. The index's range
// keys are hex digests, so that is the last step or two of a search.
type ref uint64

const (
	offsetBits  = 18 // 256 KB chunks; a larger record sits alone at offset 0
	chunkBits   = 22
	prefixShift = offsetBits + chunkBits
)

// keyPrefix returns the part of a range key a ref carries.
func keyPrefix(rangeKey string) ref {
	var p ref
	for i := 0; i < 3; i++ {
		p <<= 8
		if i < len(rangeKey) {
			p |= ref(rangeKey[i])
		}
	}
	return p
}

type arena struct {
	chunks [][]byte
	live   int64 // bytes of records some group references
	dead   int64 // bytes of records retired by an overwrite or a delete
}

// add appends one encoded record, whose range key starts with prefix, and
// returns its reference. A record never straddles chunks and a chunk is
// never reallocated: when the open chunk cannot take the record a new one is
// opened.
func (a *arena) add(rec []byte, prefix ref) ref {
	n := len(a.chunks)
	if n == 0 || cap(a.chunks[n-1])-len(a.chunks[n-1]) < len(rec) {
		if n == 1<<chunkBits {
			panic("kv: table has outgrown its chunk index")
		}
		size := min(max(a.live, chunkMin), chunkMax)
		a.chunks = append(a.chunks, make([]byte, 0, max(int(size), len(rec))))
		n++
	}
	off := len(a.chunks[n-1])
	a.chunks[n-1] = append(a.chunks[n-1], rec...)
	a.live += int64(len(rec))
	return prefix<<prefixShift | ref(n-1)<<offsetBits | ref(off)
}

// record returns the whole record r addresses, length and checksum included.
func (a *arena) record(r ref) []byte {
	c := a.chunks[r>>offsetBits&(1<<chunkBits-1)]
	off := int(r & (1<<offsetBits - 1))
	end := off + recPrefix + int(binary.LittleEndian.Uint32(c[off:]))
	return c[off:end:end]
}

// checkRecord panics unless the record's body still has the checksum it was
// appended with. Only a write through a view can change it.
func checkRecord(rec []byte) {
	if crc32.Checksum(rec[recPrefix:], castagnoli) != binary.LittleEndian.Uint32(rec[4:]) {
		panic("kv: stored item changed after it was written: a reader wrote through a read-only view")
	}
}

// viewString returns b's bytes as a string, without a copy. Arena bytes are
// never rewritten, so the result is as immutable as any other string. This
// is the only use of unsafe in the package.
func viewString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// tally sums, over a set of items, what the modeled service bills for them
// and what a view of them needs slabs for.
type tally struct {
	bytes  int64 // Item.Size() as billed
	attrs  int64
	values int64 // attribute name/value pairs, for overhead accounting
}

func (a *tally) add(b tally) { a.bytes += b.bytes; a.attrs += b.attrs; a.values += b.values }
func (a *tally) sub(b tally) { a.bytes -= b.bytes; a.attrs -= b.attrs; a.values -= b.values }

// readRangeKey returns a view of the range key a record body starts with,
// and the offset past it.
func readRangeKey(body []byte) (string, int) {
	n, off := binary.Uvarint(body)
	end := off + int(n)
	return viewString(body[off:end]), end
}

// readTally returns the tally a record body carries after its range key,
// and the offset of the first attribute.
func readTally(body []byte, off int) (tally, int) {
	size, n := binary.Uvarint(body[off:])
	off += n
	attrs, n := binary.Uvarint(body[off:])
	off += n
	values, n := binary.Uvarint(body[off:])
	return tally{int64(size), int64(attrs), int64(values)}, off + n
}

// group is the items of one hash key: references to their records in
// ascending range key order, and their tally, which sizes a view's slabs
// without a pass over the records.
type group struct {
	key  string // the store's own copy of the hash key
	refs []ref
	sum  tally
}

type table struct {
	groups map[string]*group
	arena
	rewrites int64

	names   []string // attribute names by id; item URIs, a few per document
	nameIDs map[string]uint64
	scratch []byte // encode buffer, reused under the store's write lock

	// Modeled contents, as the simulated service would report them.
	items int64
	sum   tally
}

func newTable() *table {
	return &table{groups: make(map[string]*group), nameIDs: make(map[string]uint64)}
}

// encode builds item's record in the scratch buffer.
func (t *table) encode(item Item, sum tally) []byte {
	b := append(t.scratch[:0], make([]byte, recPrefix)...)
	b = binary.AppendUvarint(b, uint64(len(item.RangeKey)))
	b = append(b, item.RangeKey...)
	b = binary.AppendUvarint(b, uint64(sum.bytes))
	b = binary.AppendUvarint(b, uint64(sum.attrs))
	b = binary.AppendUvarint(b, uint64(sum.values))
	for _, a := range item.Attrs {
		id, ok := t.nameIDs[a.Name]
		if !ok {
			id = uint64(len(t.names))
			name := strings.Clone(a.Name)
			t.names = append(t.names, name)
			t.nameIDs[name] = id
		}
		b = binary.AppendUvarint(b, id)
		b = binary.AppendUvarint(b, uint64(len(a.Values)))
		for _, v := range a.Values {
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-recPrefix))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[recPrefix:], castagnoli))
	t.scratch = b
	return b
}

func (t *table) rangeKey(r ref) string {
	key, _ := readRangeKey(t.record(r)[recPrefix:])
	return key
}

// search finds rangeKey's position in a group: where it is, or where it
// would be inserted.
func (t *table) search(refs []ref, rangeKey string) (int, bool) {
	prefix := keyPrefix(rangeKey)
	lo, hi := 0, len(refs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		less := refs[m]>>prefixShift < prefix
		if refs[m]>>prefixShift == prefix {
			less = t.rangeKey(refs[m]) < rangeKey
		}
		if less {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(refs) && refs[lo]>>prefixShift == prefix && t.rangeKey(refs[lo]) == rangeKey
}

// put stores one validated item, replacing the item with the same primary
// key if there is one.
func (t *table) put(item Item) {
	g := t.groups[item.HashKey]
	if g == nil {
		// A copy, so that the table does not pin what the caller cut the
		// key from.
		g = &group{key: strings.Clone(item.HashKey)}
		t.groups[g.key] = g
	}
	sum := tally{bytes: item.Size(), attrs: int64(len(item.Attrs))}
	for _, a := range item.Attrs {
		sum.values += int64(len(a.Values))
	}
	i, found := t.search(g.refs, item.RangeKey)
	r := t.add(t.encode(item, sum), keyPrefix(item.RangeKey))
	if found {
		t.retire(g, g.refs[i])
		g.refs[i] = r
	} else {
		g.refs = slices.Insert(g.refs, i, r)
	}
	g.sum.add(sum)
	t.sum.add(sum)
	t.items++
}

// delete removes one item if it exists.
func (t *table) delete(hashKey, rangeKey string) {
	g := t.groups[hashKey]
	if g == nil {
		return
	}
	i, found := t.search(g.refs, rangeKey)
	if !found {
		return
	}
	t.retire(g, g.refs[i])
	if g.refs = slices.Delete(g.refs, i, i+1); len(g.refs) == 0 {
		delete(t.groups, hashKey)
	}
}

// retire takes a record of g that is about to lose its reference out of the
// accounts.
func (t *table) retire(g *group, r ref) {
	rec := t.record(r)
	body := rec[recPrefix:]
	_, off := readRangeKey(body)
	sum, _ := readTally(body, off)
	g.sum.sub(sum)
	t.sum.sub(sum)
	t.items--
	t.live -= int64(len(rec))
	t.dead += int64(len(rec))
}

// maybeRewrite copies the live records into fresh chunks once half the arena
// is dead. The old chunks are left as they are: views handed out earlier
// stay valid, and the collector frees each chunk when the last view of it
// goes.
func (t *table) maybeRewrite() {
	if t.dead < t.live || t.dead < rewriteFloor {
		return
	}
	old := t.arena
	t.arena = arena{}
	for _, g := range t.groups {
		for i, r := range g.refs {
			rec := old.record(r)
			checkRecord(rec)
			g.refs[i] = t.add(rec, r>>prefixShift)
		}
	}
	t.rewrites++
}

// view materialises a group's items in range key order: one slab each of
// Item, Attr and Value headers, whose RangeKeys and Values alias the arena.
// Values are capacity-limited, so an append to one copies and never reaches
// the neighbouring record. With check set every record's checksum is
// verified first.
func (t *table) view(g *group, check bool) []Item {
	items := make([]Item, len(g.refs))
	attrs := make([]Attr, g.sum.attrs)
	values := make([]Value, g.sum.values)
	for i, r := range g.refs {
		rec := t.record(r)
		if check {
			checkRecord(rec)
		}
		body := rec[recPrefix:]
		rangeKey, off := readRangeKey(body)
		sum, off := readTally(body, off)
		for j := range attrs[:sum.attrs] {
			id, n := binary.Uvarint(body[off:])
			off += n
			count, n := binary.Uvarint(body[off:])
			off += n
			for k := range values[:count] {
				size, n := binary.Uvarint(body[off:])
				off += n
				if end := off + int(size); end > off { // an empty value stays nil
					values[k] = body[off:end:end]
					off = end
				}
			}
			attrs[j] = Attr{Name: t.names[id], Values: values[:count:count]}
			values = values[count:]
		}
		items[i] = Item{HashKey: g.key, RangeKey: rangeKey, Attrs: attrs[:sum.attrs:sum.attrs]}
		attrs = attrs[sum.attrs:]
	}
	return items
}
