package kv

import (
	"context"
	"encoding/binary"
	"time"
)

// Tally is what a set of items adds up to: how many there are, their
// attributes and attribute values, and their billed size.
type Tally struct {
	Items  int64
	Attrs  int64
	Values int64 // attribute name/value pairs, for overhead accounting
	Bytes  int64 // Item.Size() summed: what a read of the items is metered and timed by
}

func (a *Tally) add(b Tally) {
	a.Items += b.Items
	a.Attrs += b.Attrs
	a.Values += b.Values
	a.Bytes += b.Bytes
}

func (a *Tally) sub(b Tally) {
	a.Items -= b.Items
	a.Attrs -= b.Attrs
	a.Values -= b.Values
	a.Bytes -= b.Bytes
}

// A Visitor receives the records of one requested hash key. A read calls
// it once for every key it was asked for, keys without items included, and
// after the store has released its lock. The visitor must not keep recs
// past its return, and must not call into the store it is reading.
type Visitor func(hashKey string, recs *Records)

// Records is a cursor over one hash key's records, in ascending range key
// order, and over the attributes and values of the current one:
//
//	for recs.Next() {
//		rangeKey := recs.RangeKey()
//		for recs.NextAttr() {
//			name := recs.Name()
//			for v, ok := recs.NextValue(); ok; v, ok = recs.NextValue() {
//				…
//			}
//		}
//	}
//
// What it hands out are read-only views of the store's memory, like the
// items of a Get (see the package documentation): nothing is copied, and a
// value kept past the request pins the chunk it lies in.
type Records struct {
	sum Tally

	// The source: references into a table's chunks, taken when the read
	// ran, with the table's attribute names as they were then; or items.
	refs      []ref
	chunks    [][]byte
	names     []string
	items     []Item
	fromItems bool

	// The current record and attribute.
	rangeKey  string
	attrs     int    // attributes not yet visited
	tab       []byte // from chunks: the attribute table from the cursor on
	vals      []byte // from chunks: the values from the cursor on
	skip      int    // values of visited attributes not read, ahead of vals
	itemAttrs []Attr // from items: the attributes not yet visited
	name      string
	values    int // values of the current attribute not yet visited
	itemVals  []Value
}

// ItemRecords returns a cursor over items, in the order given. A read hands
// out records in ascending range key order; a caller that merges items into
// a read's records sorts them the same way.
func ItemRecords(items []Item) *Records {
	r := &Records{items: items, fromItems: true}
	for _, it := range items {
		r.sum.add(itemTally(it))
	}
	return r
}

// Tally returns what all of the key's records add up to, wherever the
// cursor is.
func (r *Records) Tally() Tally { return r.sum }

// Next moves to the next record and reports whether there is one.
func (r *Records) Next() bool {
	r.values = 0
	if r.fromItems {
		if len(r.items) == 0 {
			return false
		}
		it := &r.items[0]
		r.items = r.items[1:]
		r.rangeKey, r.attrs, r.itemAttrs = it.RangeKey, len(it.Attrs), it.Attrs
		return true
	}
	if len(r.refs) == 0 {
		return false
	}
	body := recordAt(r.chunks, r.refs[0])[recPrefix:]
	r.refs = r.refs[1:]
	rangeKey, off := readRangeKey(body)
	sum, off := readTally(body, off)
	tab, n := binary.Uvarint(body[off:])
	off += n
	end := off + int(tab)
	r.rangeKey, r.attrs, r.tab, r.vals, r.skip = rangeKey, int(sum.Attrs), body[off:end], body[end:], 0
	return true
}

// RangeKey returns the current record's range key.
func (r *Records) RangeKey() string { return r.rangeKey }

// AttrCount returns how many attributes of the current record NextAttr has
// yet to visit: all of them right after Next.
func (r *Records) AttrCount() int { return r.attrs }

// NextAttr moves to the current record's next attribute and reports whether
// there is one. Values of the previous attribute left unread are skipped,
// and only once a later value is read.
func (r *Records) NextAttr() bool {
	if r.attrs == 0 {
		return false
	}
	r.attrs--
	if r.fromItems {
		a := &r.itemAttrs[0]
		r.itemAttrs = r.itemAttrs[1:]
		r.name, r.itemVals, r.values = a.Name, a.Values, len(a.Values)
		return true
	}
	r.skip += r.values
	id, n := binary.Uvarint(r.tab)
	count, m := binary.Uvarint(r.tab[n:])
	r.tab = r.tab[n+m:]
	r.name, r.values = r.names[id], int(count)
	return true
}

// LastName returns the name of the current record's last attribute, or ""
// when NextAttr has no attribute left to visit. It moves no cursor and
// reads no value.
func (r *Records) LastName() string {
	if r.attrs == 0 {
		return ""
	}
	if r.fromItems {
		return r.itemAttrs[len(r.itemAttrs)-1].Name
	}
	var id uint64
	for tab, i := r.tab, 0; i < r.attrs; i++ {
		var n, m int
		id, n = binary.Uvarint(tab)
		_, m = binary.Uvarint(tab[n:])
		tab = tab[n+m:]
	}
	return r.names[id]
}

// Name returns the current attribute's name.
func (r *Records) Name() string { return r.name }

// NextValue returns the current attribute's next value, and false when it
// has no more. An empty value is nil; a value has no spare capacity, so an
// append to it copies.
func (r *Records) NextValue() (Value, bool) {
	if r.values == 0 {
		return nil, false
	}
	r.values--
	if r.fromItems {
		v := r.itemVals[0]
		r.itemVals = r.itemVals[1:]
		return v, true
	}
	for ; r.skip > 0; r.skip-- {
		size, n := binary.Uvarint(r.vals)
		r.vals = r.vals[n+int(size):]
	}
	size, n := binary.Uvarint(r.vals)
	end := n + int(size)
	v := r.vals[n:end:end]
	r.vals = r.vals[end:]
	if size == 0 {
		return nil, true
	}
	return v, true
}

// collect materialises the records from the cursor on as items of
// hashKey: one slab each of Item, Attr and Value headers, sized from the
// tally, whose range keys and values are the cursor's views. No records
// collect to nil.
func (r *Records) collect(hashKey string) []Item {
	if r.sum.Items == 0 {
		return nil
	}
	items := make([]Item, 0, r.sum.Items)
	attrs := make([]Attr, r.sum.Attrs)
	values := make([]Value, r.sum.Values)
	for r.Next() {
		n := r.AttrCount()
		for j := range attrs[:n] {
			r.NextAttr()
			count := r.values
			for k := range values[:count] {
				values[k], _ = r.NextValue()
			}
			attrs[j] = Attr{Name: r.Name(), Values: values[:count:count]}
			values = values[count:]
		}
		items = append(items, Item{HashKey: hashKey, RangeKey: r.RangeKey(), Attrs: attrs[:n:n]})
		attrs = attrs[n:]
	}
	return items
}

// Get reads every item of one hash key, in ascending range key order: the
// one-key Read, collected into items. It is metered, timed, retried and
// fault-injected exactly as that read.
func Get(ctx context.Context, s Store, table, hashKey string) ([]Item, time.Duration, error) {
	var items []Item
	d, err := s.Read(ctx, table, []string{hashKey}, func(k string, recs *Records) {
		items = recs.collect(k)
	})
	if err != nil {
		return nil, d, err
	}
	return items, d, nil
}

// BatchGet reads up to Limits().BatchGetKeys hash keys in one Read and
// collects each key's items; a key without items maps to nil.
func BatchGet(ctx context.Context, s Store, table string, hashKeys []string) (map[string][]Item, time.Duration, error) {
	out := make(map[string][]Item, len(hashKeys))
	d, err := s.Read(ctx, table, hashKeys, func(k string, recs *Records) {
		out[k] = recs.collect(k)
	})
	if err != nil {
		return nil, d, err
	}
	return out, d, nil
}
