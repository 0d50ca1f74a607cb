package kv

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// This file is the physical layout of a MemStore table. Items are kept
// encoded, one record each, in append-only byte chunks; per hash key a list
// of record references is kept sorted by range key. A record is
//
//	u32le len(body) | u32le crc32c(body) | body
//	body := len(range key) range key | size | #attrs | #values |
//	        len(attr*) | attr* | (len value)*
//	attr := name id | #values
//
// with every count and length a uvarint, and the values in attribute order.
// The names come before the values so that a reader after names alone, as
// a bulk commit's check of which documents a key holds is, steps through
// them without decoding a value. size is Item.Size() as billed; the
// modeled figures the store reports (TableBytes, latencies, ledger records)
// all come from it, never from the record or chunk lengths.
//
// Nothing in a chunk is written twice: a put appends, an overwrite or delete
// only drops the reference and counts the old record dead, and a rewrite
// copies the live records into fresh chunks and lets the old ones go. A
// chunk is allocated at its full size and its slice never changes after.
// That is what lets a read take a group's references and the chunk list
// under the lock, walk the records after releasing it, and hand out views
// (Values and RangeKeys that alias the chunk) without a copy. The collector
// sees the chunks (no pointers inside), one reference slice per hash key
// and the interned attribute names.

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
	chunks [][]byte // each at its full size; the last is filled up to fill
	fill   int
	live   int64 // bytes of records some group references
	dead   int64 // bytes of records retired by an overwrite or a delete
}

// add appends one encoded record, whose range key starts with prefix, and
// returns its reference. A record never straddles chunks and a chunk is
// never reallocated: when the open chunk cannot take the record a new one is
// opened.
func (a *arena) add(rec []byte, prefix ref) ref {
	n := len(a.chunks)
	if n == 0 || len(a.chunks[n-1])-a.fill < len(rec) {
		if n == 1<<chunkBits {
			panic("kv: table has outgrown its chunk index")
		}
		size := min(max(a.live, chunkMin), chunkMax)
		a.chunks = append(a.chunks, make([]byte, max(int(size), len(rec))))
		a.fill = 0
		n++
	}
	off := a.fill
	a.fill += copy(a.chunks[n-1][off:], rec)
	a.live += int64(len(rec))
	return prefix<<prefixShift | ref(n-1)<<offsetBits | ref(off)
}

// record returns the whole record r addresses, length and checksum included.
func (a *arena) record(r ref) []byte { return recordAt(a.chunks, r) }

// recordAt is record over a list of chunks a read took.
func recordAt(chunks [][]byte, r ref) []byte {
	c := chunks[r>>offsetBits&(1<<chunkBits-1)]
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

// itemTally returns one item's tally.
func itemTally(item Item) Tally {
	sum := Tally{Items: 1, Attrs: int64(len(item.Attrs)), Bytes: item.Size()}
	for _, a := range item.Attrs {
		sum.Values += int64(len(a.Values))
	}
	return sum
}

// readRangeKey returns a view of the range key a record body starts with,
// and the offset past it.
func readRangeKey(body []byte) (string, int) {
	n, off := binary.Uvarint(body)
	end := off + int(n)
	return viewString(body[off:end]), end
}

// uvarintLen returns the length of n as a uvarint.
func uvarintLen(n uint64) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// readTally returns the tally a record body carries after its range key,
// and the offset of the first attribute.
func readTally(body []byte, off int) (Tally, int) {
	size, n := binary.Uvarint(body[off:])
	off += n
	attrs, n := binary.Uvarint(body[off:])
	off += n
	values, n := binary.Uvarint(body[off:])
	return Tally{Items: 1, Attrs: int64(attrs), Values: int64(values), Bytes: int64(size)}, off + n
}

// group is the items of one hash key: references to their records in
// ascending range key order, and their tally, which a read bills and its
// visitor sizes its slabs by without a pass over the records. The table's
// map holds the store's own copy of the hash key.
type group struct {
	refs []ref
	sum  Tally
}

// table is one table of a MemStore. Its lock guards everything below it;
// an operation takes it under the store's read lock, so operations on
// different tables run in parallel.
type table struct {
	mu     sync.RWMutex
	groups map[string]*group
	arena
	rewrites int64

	names    []string // attribute names by id; item URIs, a few per document
	nameIDs  map[string]uint64
	lastName uint64   // the id encode used last: a batch's items mostly share one
	nextName []uint64 // by id, the id encode used after it last time
	scratch  []byte   // encode buffer, reused under the table's write lock
	ids      []uint64 // encode\'s name ids, likewise

	// Modeled contents, as the simulated service would report them.
	sum Tally
}

func newTable() *table {
	return &table{groups: make(map[string]*group), nameIDs: make(map[string]uint64)}
}

// encode builds item's record in the scratch buffer.
func (t *table) encode(item Item, sum Tally) []byte {
	b := append(t.scratch[:0], make([]byte, recPrefix)...)
	b = binary.AppendUvarint(b, uint64(len(item.RangeKey)))
	b = append(b, item.RangeKey...)
	b = binary.AppendUvarint(b, uint64(sum.Bytes))
	b = binary.AppendUvarint(b, uint64(sum.Attrs))
	b = binary.AppendUvarint(b, uint64(sum.Values))
	ids, tab := t.ids[:0], 0
	for _, a := range item.Attrs {
		id := t.nameID(a.Name)
		ids = append(ids, id)
		tab += uvarintLen(id) + uvarintLen(uint64(len(a.Values)))
	}
	t.ids = ids
	b = binary.AppendUvarint(b, uint64(tab))
	for i, a := range item.Attrs {
		b = binary.AppendUvarint(b, ids[i])
		b = binary.AppendUvarint(b, uint64(len(a.Values)))
	}
	for _, a := range item.Attrs {
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

// nameID returns the id of an attribute name, interning the name on first
// use. nameIDs is the source of truth; the name encoded last and the one
// encoded after it the time before are checked first. The items of one
// document carry one name, and the packs of a bulk commit carry the same
// documents, in URI order, key after key.
func (t *table) nameID(name string) uint64 {
	last := t.lastName
	if last < uint64(len(t.names)) {
		if t.names[last] == name {
			return last
		}
		if next := t.nextName[last]; t.names[next] == name {
			t.lastName = next
			return next
		}
	}
	id, ok := t.nameIDs[name]
	if !ok {
		id = uint64(len(t.names))
		name = strings.Clone(name)
		t.names = append(t.names, name)
		t.nextName = append(t.nextName, id)
		t.nameIDs[name] = id
	}
	if last < uint64(len(t.nextName)) {
		t.nextName[last] = id
	}
	t.lastName = id
	return id
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
		g = &group{}
		t.groups[strings.Clone(item.HashKey)] = g
	}
	sum := itemTally(item)
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

// records returns a cursor over a group's records as the table holds them
// now, for a walk under the table's lock.
func (t *table) records(g *group) Records {
	return Records{sum: g.sum, refs: g.refs, chunks: t.chunks, names: t.names}
}

// view collects the items of the group of hashKey (Records.collect) under
// the table's lock. With check set every record's checksum is verified
// first.
func (t *table) view(hashKey string, g *group, check bool) []Item {
	if check {
		for _, r := range g.refs {
			checkRecord(t.record(r))
		}
	}
	recs := t.records(g)
	return recs.collect(hashKey)
}
