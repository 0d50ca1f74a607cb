package engine

import (
	"sync"

	"repro/internal/slab"
	"repro/internal/xmltree"
)

// The rows of one pattern on one document are built in a matcher's memory,
// which also holds rows that a later step drops (a failed branch, the
// factors of a product), and are then copied at exact size into memory the
// plan owns. Both are recycled: a matcher's when EvalPattern returns, a
// plan's when its owner calls Release.

// matcher builds the rows of one pattern over one document. Rows are carved
// from cols and collected on rows, the row stack every level of match
// appends to; scratch is a stack of candidate lists shared by the whole
// descent: every level appends its candidates and pops them when done. A
// matcher is pooled, so a stream of evaluations reuses all three.
type matcher struct {
	uri   string
	width int

	rows    []Row
	scratch []*xmltree.Node
	cols    slab.Chunks[string]
	made    int // rows carved, which bounds how far the row stack reached
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// Column memory comes in chunks of colChunk strings (a row's width where
// that is more). A pooled matcher keeps maxMatcherCols strings of it and a
// row stack of at most maxPooledRows.
const (
	colChunk       = 1024
	maxMatcherCols = 8 * colChunk
	maxPooledRows  = 8 << 10
)

func (m *matcher) newRow() Row {
	m.made++
	if m.width == 0 {
		return Row{URI: m.uri, Cols: []string{}}
	}
	return Row{URI: m.uri, Cols: m.cols.Take(m.width, colChunk)}
}

// release clears what m holds of a document and returns it to the pool.
func (m *matcher) release() {
	clear(m.rows[:min(m.made, cap(m.rows))])
	clear(m.scratch[:cap(m.scratch)])
	m.cols.Reset(maxMatcherCols)
	if cap(m.rows) > maxPooledRows {
		m.rows = nil
	}
	m.uri, m.rows, m.scratch, m.made = "", m.rows[:0], m.scratch[:0], 0
	matcherPool.Put(m)
}

// rowMem is the memory of a plan's rows: chunks of Row headers and of column
// strings, carved at exact size by EvalPattern and Finish under the plan's
// mutex. Release clears it and pools it for a later plan.
type rowMem struct {
	rows slab.Chunks[Row]
	cols slab.Chunks[string]
}

var rowMemPool = sync.Pool{New: func() any { return new(rowMem) }}

// A plan's row memory is carved from chunks of at least rowChunk rows and
// colChunk strings, and a pooled one keeps at most maxPooledRows rows and
// maxPooledCols strings of them: enough for a scan query's rows, not so much
// that every later plan carries one odd query's.
const (
	rowChunk      = 256
	maxPooledCols = 32 << 10
)

// keep copies rows, which lie in a matcher's memory, into the plan's, at
// exact size.
func (p *Plan) keep(rows []Row) []Row {
	if len(rows) == 0 {
		return nil
	}
	w := p.width
	p.mu.Lock()
	if p.mem == nil {
		p.mem = rowMemPool.Get().(*rowMem)
	}
	out := p.mem.rows.Take(len(rows), rowChunk)
	cols := p.mem.cols.Take(len(rows)*w, colChunk)
	p.mu.Unlock()
	for i, r := range rows {
		if w > 0 {
			r.Cols = cols[i*w : (i+1)*w : (i+1)*w]
			copy(r.Cols, rows[i].Cols)
		}
		out[i] = r
	}
	return out
}

// rowsOf returns n rows of the plan's memory, for Finish.
func (p *Plan) rowsOf(n int) []Row {
	if n == 0 {
		return []Row{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mem == nil {
		p.mem = rowMemPool.Get().(*rowMem)
	}
	return p.mem.rows.Take(n, rowChunk)
}

// Release hands the plan's row memory to later plans, cleared: it holds
// the rows EvalPattern returned and, of Finish's Result, the rows of a query
// of one pattern. Those are invalid afterwards, so only the plan's owner
// calls it, once it has read what it needs of them (the query processor
// once it has encoded the result). A second call does nothing, and a plan
// that is used again after it takes fresh memory. A plan that is never
// released is left to the collector with its rows.
func (p *Plan) Release() {
	p.mu.Lock()
	m := p.mem
	p.mem = nil
	p.mu.Unlock()
	if m == nil {
		return
	}
	m.rows.Reset(maxPooledRows)
	m.cols.Reset(maxPooledCols)
	rowMemPool.Put(m)
}
