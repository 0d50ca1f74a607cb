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
	"runtime"
	"strings"
	"sync"

	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Row is one result tuple.
type Row struct {
	// URI is the document (or, after a value join, the list of documents,
	// joined with "+") the row stems from.
	URI string
	// Cols holds one string per output column of the query.
	Cols []string
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
	Columns []string
	Rows    []Row
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

// plan is the per-query column/variable layout shared by all documents.
type plan struct {
	q *pattern.Query
	// cols[i] identifies the pattern node and annotation of output column i.
	cols []colRef
	// colOf maps (node, kind) to its column index; join variables get
	// hidden columns appended after the visible ones.
	visible int
	colIdx  map[colKey]int
	// perPattern lists, for each pattern, the column indexes it fills.
	perPattern [][]int
	// varCol maps a join variable to its (possibly hidden) column.
	varCol map[string]int
}

type colKind uint8

const (
	colVal colKind = iota
	colCont
	colVar
)

type colKey struct {
	node *pattern.Node
	kind colKind
}

type colRef struct {
	node *pattern.Node
	kind colKind
}

func newPlan(q *pattern.Query) *plan {
	p := &plan{q: q, colIdx: make(map[colKey]int), varCol: make(map[string]int)}
	add := func(n *pattern.Node, k colKind) int {
		key := colKey{n, k}
		if idx, ok := p.colIdx[key]; ok {
			return idx
		}
		idx := len(p.cols)
		p.cols = append(p.cols, colRef{n, k})
		p.colIdx[key] = idx
		return idx
	}
	for _, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			if n.Val {
				add(n, colVal)
			}
			if n.Cont {
				add(n, colCont)
			}
		})
	}
	p.visible = len(p.cols)
	for _, t := range q.Patterns {
		t.Walk(func(n *pattern.Node) {
			if n.Var != "" {
				// A join variable needs the node's value; reuse the val
				// column when the node is also annotated.
				if idx, ok := p.colIdx[colKey{n, colVal}]; ok {
					p.varCol[n.Var] = idx
				} else {
					p.varCol[n.Var] = add(n, colVar)
				}
			}
		})
	}
	p.perPattern = make([][]int, len(q.Patterns))
	for pi, t := range q.Patterns {
		var idxs []int
		t.Walk(func(n *pattern.Node) {
			for _, k := range []colKind{colVal, colCont, colVar} {
				if idx, ok := p.colIdx[colKey{n, k}]; ok {
					idxs = append(idxs, idx)
				}
			}
		})
		p.perPattern[pi] = idxs
	}
	return p
}

// EvalPatternOnDoc evaluates one tree pattern on one document and returns
// its rows (visible columns only; no value joins are applied). A pattern
// with no annotations yields a single empty row when the document matches.
func EvalPatternOnDoc(t *pattern.Tree, doc *xmltree.Document) []Row {
	q := &pattern.Query{Patterns: []*pattern.Tree{t}}
	p := newPlan(q)
	rows := p.evalPattern(0, doc)
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{URI: doc.URI, Cols: r[:p.visible]})
	}
	return dedup(out)
}

// Matches reports whether the document contains at least one embedding of
// the pattern (the ground truth behind Table 5's "docs with results" for
// single-pattern queries).
func Matches(t *pattern.Tree, doc *xmltree.Document) bool {
	q := &pattern.Query{Patterns: []*pattern.Tree{t}}
	p := newPlan(q)
	return len(p.evalPattern(0, doc)) > 0
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
// query's value joins across the per-pattern results.
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

	joined, err := p.joinPatterns(perPattern)
	if err != nil {
		return nil, err
	}
	// Project away hidden join columns.
	out := make([]Row, 0, len(joined))
	for _, r := range joined {
		out = append(out, Row{URI: r.URI, Cols: r.Cols[:p.visible]})
	}
	return &Result{Columns: ColumnNames(q), Rows: dedup(out)}, nil
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
	rowsOf := make([][][]string, len(tasks))
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

	perPattern := make([][]Row, len(docSets))
	for ti, t := range tasks {
		doc := docSets[t.pi][t.di]
		for _, cols := range rowsOf[ti] {
			perPattern[t.pi] = append(perPattern[t.pi], Row{URI: doc.URI, Cols: cols})
		}
	}
	for pi := range perPattern {
		perPattern[pi] = dedup(perPattern[pi])
	}
	return perPattern
}

// evalPattern returns the column tuples of one pattern over one document.
func (p *plan) evalPattern(pi int, doc *xmltree.Document) [][]string {
	t := p.q.Patterns[pi]
	root := t.Root
	var candidates []*xmltree.Node
	for _, n := range doc.NodesByLabel(root.Label) {
		if root.IsAttr != (n.Kind == xmltree.Attribute) {
			continue
		}
		if root.Axis == pattern.Child && n.Parent != nil {
			continue // pattern rooted at the document root
		}
		candidates = append(candidates, n)
	}
	var rows [][]string
	var scratch []*xmltree.Node
	for _, c := range candidates {
		rows = append(rows, p.matchAt(root, c, &scratch)...)
	}
	return rows
}

// matchAt returns the partial column tuples for embeddings of the pattern
// subtree rooted at q where q maps to doc node n. Label and axis of q
// itself are the caller's responsibility; predicates are checked here.
// scratch is a stack of candidate lists shared by the whole descent: every
// level appends its candidates and pops them when done.
func (p *plan) matchAt(q *pattern.Node, n *xmltree.Node, scratch *[]*xmltree.Node) [][]string {
	if q.Pred.Kind != pattern.NoPred && !q.Pred.Matches(n.Value()) {
		return nil
	}
	rows := [][]string{make([]string, len(p.cols))}
	for _, qc := range q.Children {
		var childRows [][]string
		base := len(*scratch)
		*scratch = appendChildMatches(*scratch, n, qc)
		// A deeper level may move the stack; this level's run stays where
		// it was read from.
		for _, m := range (*scratch)[base:] {
			childRows = append(childRows, p.matchAt(qc, m, scratch)...)
		}
		*scratch = (*scratch)[:base]
		if len(childRows) == 0 {
			return nil
		}
		rows = product(rows, childRows)
	}
	// Fill this node's columns in every surviving row.
	for _, k := range []colKind{colVal, colCont, colVar} {
		idx, ok := p.colIdx[colKey{q, k}]
		if !ok {
			continue
		}
		var v string
		if k == colCont {
			v = n.Content()
		} else {
			v = n.Value()
		}
		for _, r := range rows {
			r[idx] = v
		}
	}
	return rows
}

// appendChildMatches appends to out the document nodes reachable from n
// along the axis of qc that carry qc's label and kind, in document order.
func appendChildMatches(out []*xmltree.Node, n *xmltree.Node, qc *pattern.Node) []*xmltree.Node {
	for _, c := range n.Children {
		if c.Label == qc.Label && qc.IsAttr == (c.Kind == xmltree.Attribute) {
			out = append(out, c)
		}
		if qc.Axis == pattern.Descendant && c.Kind == xmltree.Element {
			out = appendChildMatches(out, c, qc)
		}
	}
	return out
}

// product merges two sets of partial rows column-wise (disjoint columns).
func product(a, b [][]string) [][]string {
	out := make([][]string, 0, len(a)*len(b))
	for _, ra := range a {
		for _, rb := range b {
			r := make([]string, len(ra))
			copy(r, ra)
			for i, v := range rb {
				if v != "" {
					r[i] = v
				}
			}
			out = append(out, r)
		}
	}
	return out
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
	key := func(r Row, vars []string) string {
		parts := make([]string, len(vars))
		for i, v := range vars {
			parts[i] = r.Cols[varCol[v]]
		}
		return strings.Join(parts, "\x00")
	}
	lvars := make([]string, len(conds))
	rvars := make([]string, len(conds))
	for i, c := range conds {
		lvars[i], rvars[i] = c.A, c.B
	}
	byKey := make(map[string][]Row)
	for _, l := range left {
		byKey[key(l, lvars)] = append(byKey[key(l, lvars)], l)
	}
	var out []Row
	for _, r := range right {
		for _, l := range byKey[key(r, rvars)] {
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

func dedup(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := r.URI + "\x00" + strings.Join(r.Cols, "\x00")
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}
