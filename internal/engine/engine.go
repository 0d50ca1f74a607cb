// Package engine is the single-site XML query processor of the
// architecture (step 11 in Figure 1): once the index look-up has narrowed
// the warehouse to a set of candidate documents, the engine evaluates the
// query on each document — structural matching, value predicates,
// selections and projections — and applies value joins across the
// per-pattern results (Section 5.5). It plays the role of the ViP2P
// processor the paper deploys on its EC2 instances.
//
// Evaluation of one tree pattern on one document enumerates the embeddings
// of the pattern into the document tree and projects, for every embedding,
// the annotated nodes (val and/or cont) and the values of join variables.
// Results have set semantics: duplicate rows are removed.
package engine

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Row is one result tuple. The JSON tags are the wire form of a served
// answer (package serve splices the stored result object into its body);
// they are as long as the field names, so a stored result object is as long
// as it was before it had them.
type Row struct {
	// URI is the document (or, after a value join, the list of documents,
	// joined with "+") the row stems from.
	URI string `json:"uri"`
	// Cols holds one string per output column of the query.
	Cols []string `json:"cols"`
}

// Bytes returns the payload size of the row, the unit in which the paper
// measures result sizes (|r(q)|, Table 5).
func (r Row) Bytes() int64 {
	n := int64(0)
	for _, c := range r.Cols {
		n += int64(len(c))
	}
	return n
}

// Result is the outcome of evaluating a query.
type Result struct {
	// Columns names the output columns, one per val/cont annotation in
	// pattern order, e.g. "painting/name.val".
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// Bytes sums the payload of all rows.
func (r *Result) Bytes() int64 {
	var n int64
	for _, row := range r.Rows {
		n += row.Bytes()
	}
	return n
}

// ColumnNames derives the output column names of a query.
func ColumnNames(q *pattern.Query) []string {
	var cols []string
	for _, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			name := nodePath(n)
			if n.Val {
				cols = append(cols, name+".val")
			}
			if n.Cont {
				cols = append(cols, name+".cont")
			}
		})
	}
	return cols
}

func nodePath(n *pattern.Node) string {
	var parts []string
	for cur := n; cur != nil; cur = cur.Parent {
		l := cur.Label
		if cur.IsAttr {
			l = "@" + l
		}
		parts = append([]string{l}, parts...)
	}
	return strings.Join(parts, "/")
}

// Plan is a query compiled for evaluation, shared by all its documents: the
// column layout of a row and every pattern node with its column slots
// resolved. Evaluation is in two steps: EvalPattern evaluates one pattern
// on one document, the paper's per-document task of step 13, and Finish
// assembles the rows of all of them into the query's result.
type Plan struct {
	q *pattern.Query
	// A row has width columns: the visible ones first, one per val/cont
	// annotation in pattern order, then one hidden column for every join
	// variable whose node has no val column to share.
	visible, width int
	// columns names the visible columns (ColumnNames).
	columns []string
	// roots holds the compiled root of each pattern.
	roots []*step
	// joins[pi-1] is how Finish joins pattern pi's rows to the rows of the
	// patterns before it, and filters are the conditions between two
	// variables of one pattern, applied once all are joined.
	joins   []joinStep
	filters []colPair

	// mu guards mem, the memory the rows of EvalPattern and Finish are
	// carved from (rowmem.go): EvalPattern runs on several goroutines.
	mu  sync.Mutex
	mem *Memory
}

// step is one pattern node compiled: where its value and its content go in a
// row, and its children split by whether their subtrees fill any column.
type step struct {
	q *pattern.Node
	// value is the column of the node's Value (its val annotation, or its
	// join variable), content that of its Content; -1 where there is none.
	value, content int
	// cols lists the columns the subtree fills, this node's included.
	cols []int
	// tests are the children whose subtrees fill no column, which so only
	// need an embedding to exist; emit are the others, in pattern order.
	tests, emit []*step
}

// joinStep is how pattern pi's rows (right) join the rows of the patterns
// before it (left): a left row's columns left[i] must equal a right row's
// columns right[i], for every i. With none, the join is a cross product.
type joinStep struct{ left, right []int }

// colPair is a condition between two columns of one row: they are equal.
type colPair struct{ a, b int }

// NewPlan validates q and compiles it into a plan whose rows lie in mem
// (a new Memory when mem is nil).
func NewPlan(q *pattern.Query, mem *Memory) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := newPlan(q)
	p.mem = mem
	return p, nil
}

// newPlan compiles q, which the caller has validated. What a step reads of
// the document node it maps to is decided here and nowhere else: the node
// itself, its Value where the pattern node has a val annotation, a join
// variable or a predicate, its Content where it has a cont annotation.
// ProjectionOf says the same to the parser.
func newPlan(q *pattern.Query) *Plan {
	p := &Plan{q: q, columns: ColumnNames(q)}
	steps := make(map[*pattern.Node]*step)
	// Visible columns first, in pattern order.
	for _, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			s := &step{q: n, value: -1, content: -1}
			steps[n] = s
			if n.Val {
				s.value = p.width
				p.width++
			}
			if n.Cont {
				s.content = p.width
				p.width++
			}
		})
	}
	p.visible = p.width
	// The (possibly hidden) column of each join variable, and the pattern
	// that binds it.
	type joinVar struct{ col, pattern int }
	vars := make(map[string]joinVar)
	for pi, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			if n.Var == "" {
				return
			}
			// A join variable needs the node's value; it shares the val
			// column when the node is also annotated.
			s := steps[n]
			if s.value < 0 {
				s.value = p.width
				p.width++
			}
			vars[n.Var] = joinVar{s.value, pi}
		})
	}
	// Patterns are joined left to right; a condition is applied as soon as
	// both its sides are joined, and one whose two sides lie in one pattern
	// is a filter on the joined rows.
	p.joins = make([]joinStep, len(q.Patterns)-1)
	for _, j := range q.Joins {
		a, b := vars[j.A], vars[j.B]
		if a.pattern == b.pattern {
			p.filters = append(p.filters, colPair{a.col, b.col})
			continue
		}
		if a.pattern > b.pattern {
			a, b = b, a
		}
		js := &p.joins[b.pattern-1]
		js.left, js.right = append(js.left, a.col), append(js.right, b.col)
	}
	var link func(n *pattern.Node) *step
	link = func(n *pattern.Node) *step {
		s := steps[n]
		if s.value >= 0 {
			s.cols = append(s.cols, s.value)
		}
		if s.content >= 0 {
			s.cols = append(s.cols, s.content)
		}
		for _, c := range n.Children {
			k := link(c)
			if len(k.cols) == 0 {
				s.tests = append(s.tests, k)
			} else {
				s.emit = append(s.emit, k)
				s.cols = append(s.cols, k.cols...)
			}
		}
		return s
	}
	for _, t := range q.Patterns {
		p.roots = append(p.roots, link(t.Root))
	}
	return p
}

// ProjectionOf returns what evaluating q reads of a document, for
// xmltree.ParseProjected to build no more than that: the elements and
// attributes the pattern nodes name, the text below an element whose value is
// read (val, a join variable, a predicate) and everything below an element
// whose content is (cont). It mirrors newPlan.
func ProjectionOf(q *pattern.Query) *xmltree.Projection {
	pr := &xmltree.Projection{Elements: make(map[string]xmltree.Keep), Attributes: make(map[string]bool)}
	for _, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			if n.IsAttr {
				pr.Attributes[n.Label] = true
				return
			}
			keep := xmltree.KeepNode
			if n.Val || n.Var != "" || n.Pred.Kind != pattern.NoPred {
				keep |= xmltree.KeepText
			}
			if n.Cont {
				keep |= xmltree.KeepAll
			}
			pr.Elements[n.Label] |= keep
		})
	}
	return pr
}

// EvalPatternOnDoc evaluates one tree pattern on one document and returns
// its rows (visible columns only; no value joins are applied). A pattern
// with no annotations yields a single empty row when the document matches.
func EvalPatternOnDoc(t *pattern.Tree, doc *xmltree.Document) []Row {
	p := newPlan(&pattern.Query{Patterns: []*pattern.Tree{t}})
	rows := p.EvalPattern(0, doc)
	return p.project(p.memory(), rows)
}

// project cuts the hidden join columns off the rows and removes the
// duplicates among what is left, with dedup's table in m.
func (p *Plan) project(m *Memory, rows []Row) []Row {
	for i := range rows {
		rows[i].Cols = rows[i].Cols[:p.visible:p.visible]
	}
	return m.dedup(rows)
}

// Matches reports whether the document contains at least one embedding of
// the pattern (the ground truth behind Table 5's "docs with results" for
// single-pattern queries).
func Matches(t *pattern.Tree, doc *xmltree.Document) bool {
	root := newPlan(&pattern.Query{Patterns: []*pattern.Tree{t}}).roots[0]
	for _, n := range doc.NodesByLabel(root.q.Label) {
		if isRootCandidate(root.q, n) && root.embedsAt(n) {
			return true
		}
	}
	return false
}

// EvalQueryOnDocs evaluates a full query — every pattern over every
// document, then the value joins — and returns the result. This is the
// "no index" evaluation; indexed evaluation narrows docs per pattern first
// (package lookup) and calls EvalQueryOnDocSets.
func EvalQueryOnDocs(q *pattern.Query, docs []*xmltree.Document) (*Result, error) {
	sets := make([][]*xmltree.Document, len(q.Patterns))
	for i := range sets {
		sets[i] = docs
	}
	return EvalQueryOnDocSets(q, sets)
}

// EvalQueryOnDocSets evaluates pattern i over docSets[i] and applies the
// query's value joins across the per-pattern results. The documents may be
// full trees or ones parsed under ProjectionOf(q); the rows are the same.
//
// The per-(pattern, document) evaluations are independent reads of
// immutable structures, so the caller and up to workers-1 helper goroutines
// share them; the optional trailing argument sets workers (0 or absent
// selects GOMAXPROCS, 1 runs them all on the caller). Finish reassembles
// the rows in (pattern, document) order, so the result is identical at
// every concurrency level.
func EvalQueryOnDocSets(q *pattern.Query, docSets [][]*xmltree.Document, workers ...int) (*Result, error) {
	p, err := NewPlan(q, nil)
	if err != nil {
		return nil, err
	}
	if len(docSets) != len(q.Patterns) {
		return nil, fmt.Errorf("engine: %d document sets for %d patterns", len(docSets), len(q.Patterns))
	}
	return p.Finish(p.evalDocSets(docSets, evalWorkers(workers)))
}

// evalWorkers resolves the optional trailing worker count of
// EvalQueryOnDocSets.
func evalWorkers(workers []int) int {
	if len(workers) > 0 && workers[0] > 0 {
		return workers[0]
	}
	return runtime.GOMAXPROCS(0)
}

// evalDocSets runs every (pattern, document) evaluation and returns the
// rows of pattern pi on docSets[pi][di] at [pi][di]. The caller and up to
// workers-1 helpers claim the tasks from a shared cursor until none is left.
func (p *Plan) evalDocSets(docSets [][]*xmltree.Document, workers int) [][][]Row {
	type task struct{ pi, di int }
	var tasks []task
	rows := make([][][]Row, len(docSets))
	for pi, docs := range docSets {
		rows[pi] = make([][]Row, len(docs))
		for di := range docs {
			tasks = append(tasks, task{pi, di})
		}
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
			t := tasks[i]
			rows[t.pi][t.di] = p.EvalPattern(t.pi, docSets[t.pi][t.di])
		}
	}
	var wg sync.WaitGroup
	for range min(workers, len(tasks)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	return rows
}

// Finish assembles the query's result from rows[pi][di], the rows
// EvalPattern made of pattern pi on the di-th document of the pattern's
// set: each pattern's rows in document order with the duplicates removed,
// then the value joins, then the projection onto the visible columns. It
// reads the rows only, so the documents may be gone. Everything it builds
// but the Result itself lies in the plan's memory, valid until Release.
func (p *Plan) Finish(rows [][][]Row) (*Result, error) {
	if len(rows) != len(p.roots) {
		return nil, fmt.Errorf("engine: rows of %d patterns for %d patterns", len(rows), len(p.roots))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.memory()
	acc := m.concat(rows[0])
	for pi, join := range p.joins {
		acc = m.hashJoin(acc, m.concat(rows[pi+1]), join)
	}
	for _, f := range p.filters {
		acc = filterEqual(acc, f)
	}
	// The rows of a single pattern without hidden columns are distinct
	// already.
	if len(p.roots) > 1 || p.visible < p.width {
		acc = p.project(m, acc)
	}
	return &Result{Columns: p.columns, Rows: acc}, nil
}

// isRootCandidate reports whether a document node carrying the label of the
// pattern root q can be the image of q: it must be of q's kind and, when q is
// on the child axis, the document's root element.
func isRootCandidate(q *pattern.Node, n *xmltree.Node) bool {
	return q.IsAttr == (n.Kind == xmltree.Attribute) && (q.Axis == pattern.Descendant || n.ID.Depth == 1)
}

// EvalPattern returns the rows of pattern pi over one document, for
// Finish: all columns wide, duplicates included, the pattern's own columns
// filled and the others empty. It only reads the document, so calls may run
// in parallel, on one document or many. The rows keep nothing of the
// document (their column strings are copied, and the URI is the
// document's), so the document may be released once it returns. They lie in
// the plan's memory, valid until Release.
func (p *Plan) EvalPattern(pi int, doc *xmltree.Document) []Row {
	root := p.roots[pi]
	p.mu.Lock()
	mem := p.memory()
	p.mu.Unlock()
	m := mem.matchers.Get()
	m.uri, m.width = doc.URI, p.width
	rows := m.rows
	for _, n := range doc.NodesByLabel(root.q.Label) {
		if !isRootCandidate(root.q, n) {
			continue
		}
		if len(root.cols) > 0 {
			rows = m.match(root, n, rows)
		} else if root.embedsAt(n) {
			// A pattern that fills no column has one empty row to give.
			rows = append(rows, m.newRow())
			break
		}
	}
	out := p.keep(rows)
	m.rows = rows
	m.reset()
	mem.matchers.Put(m)
	return out
}

// The evaluator reads the document through Label, Kind, ID.Depth, Children,
// Value and Content only, and takes the child axis from the depths, not from
// Parent: a projected document's Children are a node's nearest built
// descendants, and a child among them is one level down.

// isImage reports whether c, one of n.Children or of their descendants, can
// be the image of qc under the image n of qc's parent: it carries qc's label
// and kind and, on the child axis, sits one level below n.
func isImage(qc *pattern.Node, n, c *xmltree.Node) bool {
	return c.Label == qc.Label && qc.IsAttr == (c.Kind == xmltree.Attribute) &&
		(qc.Axis == pattern.Descendant || c.ID.Depth == n.ID.Depth+1)
}

// appendChildMatches appends to out the document nodes reachable from n
// along the axis of qc that carry qc's label and kind, in document order.
func appendChildMatches(out []*xmltree.Node, n *xmltree.Node, qc *pattern.Node) []*xmltree.Node {
	for _, c := range n.Children {
		if isImage(qc, n, c) {
			out = append(out, c)
		}
		if qc.Axis == pattern.Descendant && c.Kind == xmltree.Element {
			out = appendChildMatches(out, c, qc)
		}
	}
	return out
}

// embedsBelow reports whether the pattern subtree of s has an embedding that
// maps s to a node along its axis below n. It stops at the first and
// allocates nothing.
func (s *step) embedsBelow(n *xmltree.Node) bool {
	for _, c := range n.Children {
		if isImage(s.q, n, c) && s.embedsAt(c) {
			return true
		}
		if s.q.Axis == pattern.Descendant && c.Kind == xmltree.Element && s.embedsBelow(c) {
			return true
		}
	}
	return false
}

// allEmbedBelow reports whether every one of steps embeds below n.
func allEmbedBelow(steps []*step, n *xmltree.Node) bool {
	for _, k := range steps {
		if !k.embedsBelow(n) {
			return false
		}
	}
	return true
}

// embedsAt reports whether the pattern subtree of s has an embedding that
// maps s to n. Label, kind and axis of n are the caller's responsibility.
func (s *step) embedsAt(n *xmltree.Node) bool {
	if s.q.Pred.Kind != pattern.NoPred && !s.q.Pred.Matches(n.Value()) {
		return false
	}
	return allEmbedBelow(s.tests, n) && allEmbedBelow(s.emit, n)
}

// match appends to dst one row for every embedding of the pattern subtree of
// s that maps s to n, with the subtree's columns filled, and returns dst.
// Label, kind and axis of n are the caller's responsibility; the predicate is
// checked here. The rows are in the order of the embeddings: by the image of
// the first emitting child, then of the second, and so on. Children that
// fill no column contribute no rows of their own, only a test that they embed
// somewhere; the duplicates their other embeddings would make are the ones
// dedup would remove.
func (m *matcher) match(s *step, n *xmltree.Node, dst []Row) []Row {
	var value string
	if s.value >= 0 || s.q.Pred.Kind != pattern.NoPred {
		value = n.Value()
		if !s.q.Pred.Matches(value) {
			return dst
		}
	}
	if !allEmbedBelow(s.tests, n) {
		return dst
	}
	start := len(dst)
	for i, k := range s.emit {
		// The rows of the first emitting child are this node's rows so far;
		// those of a later one are multiplied in.
		mid := len(dst)
		base := len(m.scratch)
		m.scratch = appendChildMatches(m.scratch, n, k.q)
		// A deeper level may move the stack; this level's run stays where
		// it was read from.
		for _, c := range m.scratch[base:] {
			dst = m.match(k, c, dst)
		}
		m.scratch = m.scratch[:base]
		if len(dst) == mid {
			return dst[:start]
		}
		if i > 0 {
			dst = m.product(dst, start, mid, k.cols)
		}
	}
	if len(s.emit) == 0 {
		dst = append(dst, m.newRow())
	}
	if s.value >= 0 {
		for _, r := range dst[start:] {
			r.Cols[s.value] = value
		}
	}
	if s.content >= 0 {
		content := n.Content()
		for _, r := range dst[start:] {
			r.Cols[s.content] = content
		}
	}
	return dst
}

// product replaces a = dst[start:mid] and b = dst[mid:] by their product, a's
// rows major: every row of a with the columns cols, which are the ones b
// fills and a does not, taken from every row of b.
func (m *matcher) product(dst []Row, start, mid int, cols []int) []Row {
	a, b := dst[start:mid], dst[mid:]
	if len(b) == 1 {
		for _, ra := range a {
			for _, c := range cols {
				ra.Cols[c] = b[0].Cols[c]
			}
		}
		return dst[:mid]
	}
	end := len(dst)
	for _, ra := range a {
		for _, rb := range b {
			r := m.newRow()
			copy(r.Cols, ra.Cols)
			for _, c := range cols {
				r.Cols[c] = rb.Cols[c]
			}
			dst = append(dst, r)
		}
	}
	return dst[:start+copy(dst[start:], dst[end:])]
}

// filterEqual keeps, in place, the rows whose columns f.a and f.b are
// equal, and returns nil when none is.
func filterEqual(rows []Row, f colPair) []Row {
	kept := rows[:0]
	for _, r := range rows {
		if r.Cols[f.a] == r.Cols[f.b] {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// hashJoin joins two row sets on the conditions of join, in m: for every
// right row in order, its merge with every left row that matches it, in left
// order. With no conditions it is the cross product, left rows major. It
// returns nil when no pair matches.
func (m *Memory) hashJoin(left, right []Row, join joinStep) []Row {
	if len(join.left) == 0 {
		out := m.merged(len(left)*len(right), left)
		k := 0
		for _, l := range left {
			for _, r := range right {
				m.merge(&out[k], l, r)
				k++
			}
		}
		return out
	}
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	x := m.index(left, join)
	n := 0
	for _, r := range right {
		h := colsHash(r, join.right)
		for j := x.match(r, h, x.head(h)); j != 0; j = x.match(r, h, x.next[j-1]) {
			n++
		}
	}
	out := m.merged(n, left)
	k := 0
	for _, r := range right {
		h := colsHash(r, join.right)
		for j := x.match(r, h, x.head(h)); j != 0; j = x.match(r, h, x.next[j-1]) {
			m.merge(&out[k], left[j-1], r)
			k++
		}
	}
	return out
}

// joinIndex is a chained hash table over the left rows of a join, in a
// plan's memory: heads holds, per bucket, the 1-based index of its first
// row, next the row after each one in its bucket (0 ends it), and hashes
// each row's key hash, so that a probe compares columns only where the
// hashes meet.
type joinIndex struct {
	left   []Row
	join   joinStep
	heads  []int32
	next   []int32
	hashes []uint64
}

// index builds the join index over left.
func (m *Memory) index(left []Row, join joinStep) joinIndex {
	x := joinIndex{left: left, join: join, heads: take(&m.slots, tableSize(len(left))),
		next: take(&m.slots, len(left)), hashes: take(&m.hashes, len(left))}
	// Inserted last to first, so that every bucket lists its rows in left
	// order.
	for i := len(left) - 1; i >= 0; i-- {
		h := colsHash(left[i], join.left)
		b := int(h) & (len(x.heads) - 1)
		x.hashes[i], x.next[i], x.heads[b] = h, x.heads[b], int32(i+1)
	}
	return x
}

// head returns the first row of the bucket of hash h.
func (x *joinIndex) head(h uint64) int32 { return x.heads[int(h)&(len(x.heads)-1)] }

// match returns the first row from j on along its bucket that matches r,
// whose hash is h, or 0.
func (x *joinIndex) match(r Row, h uint64, j int32) int32 {
	for ; j != 0; j = x.next[j-1] {
		if x.hashes[j-1] == h && joinEqual(x.left[j-1], r, x.join) {
			return j
		}
	}
	return 0
}

// merged carves n rows as wide as the rows of left from m, for merge to
// fill; nil when n is 0.
func (m *Memory) merged(n int, left []Row) []Row {
	if n == 0 {
		return nil
	}
	w := len(left[0].Cols)
	out := take(&m.rows, n)
	cols := take(&m.cols, n*w)
	if cols == nil {
		// No columns is an empty list, not a missing one: the stored
		// object says [] and is billed for it.
		cols = []string{}
	}
	for i := range out {
		out[i].Cols = cols[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// merge fills dst, a row of merged, with l's columns overlaid by r's
// non-empty ones and the URIs of both.
func (m *Memory) merge(dst *Row, l, r Row) {
	copy(dst.Cols, l.Cols)
	for i, v := range r.Cols {
		if v != "" {
			dst.Cols[i] = v
		}
	}
	dst.URI = l.URI
	if r.URI != "" && r.URI != l.URI {
		dst.URI = m.joinURI(l.URI, r.URI)
	}
}

// colsHash hashes the columns cols of r.
func colsHash(r Row, cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = h*0x9e3779b97f4a7c15 ^ maphash.String(dedupSeed, r.Cols[c])
	}
	return h
}

// joinEqual reports whether l and r agree on every condition of join.
func joinEqual(l, r Row, join joinStep) bool {
	for i, c := range join.left {
		if l.Cols[c] != r.Cols[join.right[i]] {
			return false
		}
	}
	return true
}

// tableSize is the size of an open hash table of n entries: a power of two,
// at least 4 and at least twice n.
func tableSize(n int) int {
	size := 4
	for size < 2*n {
		size *= 2
	}
	return size
}

// dedup removes, in place, every row that repeats an earlier one (same URI,
// same columns) and returns the rows that stay, in their order. It hashes the
// strings of a row where they lie and compares rows whose hashes meet, so it
// builds no key; its table and hashes are carved from m.
func (m *Memory) dedup(rows []Row) []Row {
	if len(rows) < 2 {
		return rows
	}
	// An open-addressed table of 1-based indexes into out, at most half
	// full, with the hashes beside out.
	size := tableSize(len(rows))
	table := take(&m.slots, size)
	hashes := take(&m.hashes, len(rows))[:0]
	out := rows[:0]
next:
	for _, r := range rows {
		h := maphash.String(dedupSeed, r.URI)
		for _, c := range r.Cols {
			h = h*0x9e3779b97f4a7c15 ^ maphash.String(dedupSeed, c)
		}
		i := int(h) & (size - 1)
		for ; table[i] != 0; i = (i + 1) & (size - 1) {
			if at := table[i] - 1; hashes[at] == h && out[at].URI == r.URI && slices.Equal(out[at].Cols, r.Cols) {
				continue next
			}
		}
		out = append(out, r)
		hashes = append(hashes, h)
		table[i] = int32(len(out))
	}
	return out
}

var dedupSeed = maphash.MakeSeed()
