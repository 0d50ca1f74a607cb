package engine

import (
	"unsafe"

	"repro/internal/slab"
	"repro/internal/xmltree"
)

// The rows of one pattern on one document are built in a matcher's memory,
// which also holds rows that a later step drops (a failed branch, the
// factors of a product), and are then copied at exact size into the plan's
// memory. Both belong to the Memory the plan's owner hands to NewPlan: a
// matcher is reused when EvalPattern returns, the plan's rows when its
// owner calls Release.

// matcher builds the rows of one pattern over one document. Rows are carved
// from cols and collected on rows, the row stack every level of match
// appends to; scratch is a stack of candidate lists shared by the whole
// descent: every level appends its candidates and pops them when done. A
// Memory keeps its matchers, so a stream of evaluations reuses all three.
type matcher struct {
	uri   string
	width int

	rows    []Row
	scratch []*xmltree.Node
	cols    slab.Chunks[string]
	made    int // rows carved, which bounds how far the row stack reached
}

// Column memory comes in chunks of colChunk strings (a row's width where
// that is more). A reset matcher keeps maxMatcherCols strings of it and a
// row stack of at most maxKeptRows.
const (
	colChunk       = 1024
	maxMatcherCols = 8 * colChunk
	maxKeptRows    = 8 << 10
)

func (m *matcher) newRow() Row {
	m.made++
	if m.width == 0 {
		return Row{URI: m.uri, Cols: []string{}}
	}
	return Row{URI: m.uri, Cols: m.cols.Take(m.width, colChunk)}
}

// reset clears what m holds of a document.
func (m *matcher) reset() {
	clear(m.rows[:min(m.made, cap(m.rows))])
	clear(m.scratch[:cap(m.scratch)])
	m.cols.Reset(maxMatcherCols)
	if cap(m.rows) > maxKeptRows {
		m.rows = nil
	}
	m.uri, m.rows, m.scratch, m.made = "", m.rows[:0], m.scratch[:0], 0
}

// Memory is what an owner's plans, one after another, build their rows in:
// the rows of EvalPattern and everything Finish builds of them (Row headers
// and column strings, dedup's and the hash join's tables and hashes, the
// bytes of the URIs a join concatenates), carved under the plan's mutex,
// and the matchers EvalPattern works in, as many as evaluated at once. The
// owner hands it to NewPlan and to the next plan once the last one has
// called Release. The zero value is ready for use.
type Memory struct {
	rows   slab.Chunks[Row]
	cols   slab.Chunks[string]
	slots  slab.Chunks[int32]
	hashes slab.Chunks[uint64]
	text   slab.Chunks[byte]

	matchers slab.Idle[matcher]
}

// A plan's memory is carved from chunks of at least memChunk bytes of each
// kind, and a released one keeps at most maxKeptMem bytes of each: enough
// for a scan query's rows and joins, not so much that every later plan
// carries one odd query's.
const (
	memChunk   = 16 << 10
	maxKeptMem = 512 << 10
)

// take carves n zeroed slots from c.
func take[T any](c *slab.Chunks[T], n int) []T {
	var zero T
	return c.Take(n, memChunk/int(unsafe.Sizeof(zero)))
}

// keepBounded resets c, keeping maxKeptMem bytes of its chunks.
func keepBounded[T any](c *slab.Chunks[T]) {
	var zero T
	c.Reset(maxKeptMem / int(unsafe.Sizeof(zero)))
}

// memory returns the plan's memory, a new one if it has none. The caller
// holds p.mu or has the plan to itself.
func (p *Plan) memory() *Memory {
	if p.mem == nil {
		p.mem = new(Memory)
	}
	return p.mem
}

// keep copies rows, which lie in a matcher's memory, into the plan's, at
// exact size, and their column strings, which lie in the document's, into
// the plan's text: the document is released once EvalPattern returns. A
// column that repeats the one of the row before (the rows of one node's
// embeddings share its value) shares its copy too.
func (p *Plan) keep(rows []Row) []Row {
	if len(rows) == 0 {
		return nil
	}
	w := p.width
	size := 0
	for i, r := range rows {
		for c, s := range r.Cols {
			if i == 0 || !same(s, rows[i-1].Cols[c]) {
				size += len(s)
			}
		}
	}
	p.mu.Lock()
	m := p.memory()
	out := take(&m.rows, len(rows))
	cols := take(&m.cols, len(rows)*w)
	text := take(&m.text, size)
	p.mu.Unlock()
	for i, r := range rows {
		if w > 0 {
			r.Cols = cols[i*w : (i+1)*w : (i+1)*w]
			for c, s := range rows[i].Cols {
				if i > 0 && same(s, rows[i-1].Cols[c]) {
					r.Cols[c] = out[i-1].Cols[c]
				} else if s != "" {
					n := copy(text, s)
					r.Cols[c] = unsafe.String(unsafe.SliceData(text), n)
					text = text[n:]
				}
			}
		}
		out[i] = r
	}
	return out
}

// same reports whether a and b are one string: the same bytes in the same
// place.
func same(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// concat returns the rows of one pattern on all its documents, in document
// order, in m, with the duplicates removed. It returns an empty, not a nil,
// slice when there are none.
func (m *Memory) concat(docs [][]Row) []Row {
	n := 0
	for _, r := range docs {
		n += len(r)
	}
	if n == 0 {
		return []Row{}
	}
	all := take(&m.rows, n)[:0]
	for _, r := range docs {
		all = append(all, r...)
	}
	return m.dedup(all)
}

// joinURI returns the URI of a row merged from rows of documents l and r,
// the two joined with "+", its bytes in m.
func (m *Memory) joinURI(l, r string) string {
	b := take(&m.text, len(l)+1+len(r))
	copy(b[copy(b, l):], "+")
	copy(b[len(l)+1:], r)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Release clears the plan's memory for its owner's next plan: it holds the
// rows EvalPattern returned and all of Finish's Result but its Columns.
// Those are invalid afterwards, so only the plan's owner calls it, once it
// has read what it needs of them (the query processor once it has encoded
// the result). A second call does nothing, and a plan that is used again
// after it takes new memory. A plan that is never released leaves its rows
// to the collector, and its Memory to no later plan.
func (p *Plan) Release() {
	p.mu.Lock()
	m := p.mem
	p.mem = nil
	p.mu.Unlock()
	if m == nil {
		return
	}
	keepBounded(&m.rows)
	keepBounded(&m.cols)
	keepBounded(&m.slots)
	keepBounded(&m.hashes)
	keepBounded(&m.text)
}
