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

// plan is a query compiled for evaluation, shared by all its documents: the
// column layout of a row and every pattern node with its column slots
// resolved.
type plan struct {
	q *pattern.Query
	// A row has width columns: the visible ones first, one per val/cont
	// annotation in pattern order, then one hidden column for every join
	// variable whose node has no val column to share.
	visible, width int
	// varCol maps a join variable to its (possibly hidden) column.
	varCol map[string]int
	// roots holds the compiled root of each pattern.
	roots []*step
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

// newPlan compiles q. What a step reads of the document node it maps to is
// decided here and nowhere else: the node itself, its Value where the pattern
// node has a val annotation, a join variable or a predicate, its Content
// where it has a cont annotation. ProjectionOf says the same to the parser.
func newPlan(q *pattern.Query) *plan {
	p := &plan{q: q, varCol: make(map[string]int)}
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
	for _, t := range q.Patterns {
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
			p.varCol[n.Var] = s.value
		})
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
	return p.project(p.evalPattern(0, doc))
}

// project cuts the hidden join columns off the rows and removes the
// duplicates among what is left.
func (p *plan) project(rows []Row) []Row {
	for i := range rows {
		rows[i].Cols = rows[i].Cols[:p.visible:p.visible]
	}
	return dedup(rows)
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
// immutable structures, so they run on a bounded worker pool; the optional
// trailing argument caps its size (0 or absent selects GOMAXPROCS, 1 runs
// sequentially). Rows are reassembled in (pattern, document) order, so the
// result is identical at every concurrency level.
func EvalQueryOnDocSets(q *pattern.Query, docSets [][]*xmltree.Document, workers ...int) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(docSets) != len(q.Patterns) {
		return nil, fmt.Errorf("engine: %d document sets for %d patterns", len(docSets), len(q.Patterns))
	}
	p := newPlan(q)

	perPattern := evalDocSets(p, docSets, evalWorkers(workers))

	rows, err := p.joinPatterns(perPattern)
	if err != nil {
		return nil, err
	}
	// The rows of a single pattern without hidden columns are what
	// evalDocSets made distinct already.
	if len(q.Patterns) > 1 || p.visible < p.width {
		rows = p.project(rows)
	}
	return &Result{Columns: ColumnNames(q), Rows: rows}, nil
}

// evalWorkers resolves the optional trailing worker count of
// EvalQueryOnDocSets.
func evalWorkers(workers []int) int {
	if len(workers) > 0 && workers[0] > 0 {
		return workers[0]
	}
	return runtime.GOMAXPROCS(0)
}

// evalDocSets runs every (pattern, document) evaluation, fanning the tasks
// out over at most `workers` goroutines, and returns the deduplicated rows
// of each pattern with documents contributing in docSets order.
func evalDocSets(p *plan, docSets [][]*xmltree.Document, workers int) [][]Row {
	type task struct{ pi, di int }
	var tasks []task
	for pi, docs := range docSets {
		for di := range docs {
			tasks = append(tasks, task{pi, di})
		}
	}
	rowsOf := make([][]Row, len(tasks))
	run := func(ti int) {
		t := tasks[ti]
		rowsOf[ti] = p.evalPattern(t.pi, docSets[t.pi][t.di])
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for ti := range tasks {
			run(ti)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ti := range idx {
					run(ti)
				}
			}()
		}
		for ti := range tasks {
			idx <- ti
		}
		close(idx)
		wg.Wait()
	}

	counts := make([]int, len(docSets))
	for ti, t := range tasks {
		counts[t.pi] += len(rowsOf[ti])
	}
	perPattern := make([][]Row, len(docSets))
	for pi, n := range counts {
		perPattern[pi] = make([]Row, 0, n)
	}
	for ti, t := range tasks {
		perPattern[t.pi] = append(perPattern[t.pi], rowsOf[ti]...)
	}
	for pi := range perPattern {
		perPattern[pi] = dedup(perPattern[pi])
	}
	return perPattern
}

// isRootCandidate reports whether a document node carrying the label of the
// pattern root q can be the image of q: it must be of q's kind and, when q is
// on the child axis, the document's root element.
func isRootCandidate(q *pattern.Node, n *xmltree.Node) bool {
	return q.IsAttr == (n.Kind == xmltree.Attribute) && (q.Axis == pattern.Descendant || n.ID.Depth == 1)
}

// evalPattern returns the rows of one pattern over one document, all columns
// wide, duplicates included. The pattern's own columns are filled; the others
// are empty.
func (p *plan) evalPattern(pi int, doc *xmltree.Document) []Row {
	root := p.roots[pi]
	m := matcher{uri: doc.URI, width: p.width}
	var rows []Row
	for _, n := range doc.NodesByLabel(root.q.Label) {
		if !isRootCandidate(root.q, n) {
			continue
		}
		if len(root.cols) > 0 {
			rows = m.match(root, n, rows)
		} else if root.embedsAt(n) {
			// A pattern that fills no column has one empty row to give.
			return append(rows, m.newRow())
		}
	}
	return rows
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

// matcher builds the rows of one pattern over one document. Rows are carved
// from slab, a chunk of strings that is replaced by a larger one when used
// up; scratch is a stack of candidate lists shared by the whole descent:
// every level appends its candidates and pops them when done.
type matcher struct {
	uri     string
	width   int
	slab    []string
	chunk   int // rows in the next chunk of slab
	scratch []*xmltree.Node
}

func (m *matcher) newRow() Row {
	if m.width == 0 {
		return Row{URI: m.uri, Cols: []string{}}
	}
	if len(m.slab) < m.width {
		m.chunk = min(max(2*m.chunk, 16), 1024)
		m.slab = make([]string, m.chunk*m.width)
	}
	cols := m.slab[:m.width:m.width]
	m.slab = m.slab[m.width:]
	return Row{URI: m.uri, Cols: cols}
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

// joinPatterns combines per-pattern rows using the query's value joins.
// Patterns are joined left to right; a join condition is applied as soon as
// both sides are available, with hash joins on the variable columns.
func (p *plan) joinPatterns(perPattern [][]Row) ([]Row, error) {
	q := p.q
	// Which pattern binds each variable.
	varPattern := make(map[string]int)
	for pi, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			if n.Var != "" {
				varPattern[n.Var] = pi
			}
		})
	}
	acc := perPattern[0]
	joinedUpTo := 1
	for pi := 1; pi < len(perPattern); pi++ {
		// Conditions linking the accumulated prefix with pattern pi.
		var conds []pattern.JoinCond
		for _, j := range q.Joins {
			pa, pb := varPattern[j.A], varPattern[j.B]
			if pb < joinedUpTo && pa == pi {
				conds = append(conds, pattern.JoinCond{A: j.B, B: j.A}) // normalize: A in prefix
			} else if pa < joinedUpTo && pb == pi {
				conds = append(conds, j)
			}
		}
		acc = hashJoin(acc, perPattern[pi], conds, p.varCol)
		joinedUpTo = pi + 1
	}
	// Remaining conditions whose two sides live in the same pattern (or
	// were otherwise not consumed) are applied as filters.
	for _, j := range q.Joins {
		pa, pb := varPattern[j.A], varPattern[j.B]
		if pa == pb {
			ca, cb := p.varCol[j.A], p.varCol[j.B]
			var kept []Row
			for _, r := range acc {
				if r.Cols[ca] == r.Cols[cb] {
					kept = append(kept, r)
				}
			}
			acc = kept
		}
	}
	return acc, nil
}

// hashJoin joins two row sets on the given equality conditions (A's column
// from left, B's from right). With no conditions it degrades to a cross
// product.
func hashJoin(left, right []Row, conds []pattern.JoinCond, varCol map[string]int) []Row {
	if len(conds) == 0 {
		var out []Row
		for _, l := range left {
			for _, r := range right {
				out = append(out, mergeRows(l, r))
			}
		}
		return out
	}
	key := func(r Row, cols []int) string {
		if len(cols) == 1 {
			return r.Cols[cols[0]]
		}
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = r.Cols[c]
		}
		return strings.Join(parts, "\x00")
	}
	lcols := make([]int, len(conds))
	rcols := make([]int, len(conds))
	for i, c := range conds {
		lcols[i], rcols[i] = varCol[c.A], varCol[c.B]
	}
	byKey := make(map[string][]Row)
	for _, l := range left {
		k := key(l, lcols)
		byKey[k] = append(byKey[k], l)
	}
	var out []Row
	for _, r := range right {
		for _, l := range byKey[key(r, rcols)] {
			out = append(out, mergeRows(l, r))
		}
	}
	return out
}

func mergeRows(l, r Row) Row {
	cols := make([]string, len(l.Cols))
	copy(cols, l.Cols)
	for i, v := range r.Cols {
		if v != "" {
			cols[i] = v
		}
	}
	uri := l.URI
	if r.URI != "" && r.URI != l.URI {
		uri = l.URI + "+" + r.URI
	}
	return Row{URI: uri, Cols: cols}
}

// dedup removes, in place, every row that repeats an earlier one (same URI,
// same columns) and returns the rows that stay, in their order. It hashes the
// strings of a row where they lie and compares rows whose hashes meet, so it
// builds no key.
func dedup(rows []Row) []Row {
	if len(rows) < 2 {
		return rows
	}
	// An open-addressed table of 1-based indexes into out, at most half
	// full, with the hashes beside out.
	size := 4
	for size < 2*len(rows) {
		size *= 2
	}
	table := make([]int32, size)
	hashes := make([]uint64, 0, len(rows))
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
