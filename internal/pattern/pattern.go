// Package pattern implements the paper's query language (Section 4): value
// joins over tree patterns, an expressive fragment of XQuery.
//
// A tree pattern is a tree of labeled nodes. Each node is an XML element or
// attribute name; edges are parent-child (single lines in Figure 2) or
// ancestor-descendant (double lines). An element node may carry the
// annotations val (its string value is returned) and/or cont (the full XML
// subtree is returned); an attribute node may carry val. Any node may carry
// one predicate on its value:
//
//   - equality      = c
//   - containment   contains(c), true if the value contains the word c
//   - range         a ≤ val ≤ b (with either bound optionally strict)
//
// A query is a list of tree patterns plus value-join conditions equating
// the values of two nodes from (usually different) patterns, drawn as
// dashed lines in Figure 2.
//
// The package also defines the textual syntax parsed by Parse (see the
// grammar there) and the root-to-leaf path decomposition used by the LUP
// look-up strategy.
package pattern

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Axis is the relationship of a pattern node to its parent.
type Axis uint8

const (
	// Child is the parent-child axis (/ in path syntax, single line in
	// Figure 2).
	Child Axis = iota
	// Descendant is the ancestor-descendant axis (//, double line).
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// PredKind discriminates value predicates.
type PredKind uint8

const (
	// NoPred means the node carries no predicate.
	NoPred PredKind = iota
	// Eq is the equality predicate = c.
	Eq
	// Contains is the word-containment predicate contains(c).
	Contains
	// Range is the interval predicate a ≤ val ≤ b.
	Range
)

// Pred is a predicate on a node's string value.
type Pred struct {
	Kind PredKind
	// Const is the constant of Eq and Contains.
	Const string
	// Lo/Hi bound Range; LoStrict/HiStrict make a bound exclusive.
	Lo, Hi             string
	LoStrict, HiStrict bool
}

// Matches evaluates the predicate against a node value. Range bounds
// compare numerically when both the bound and the value parse as numbers,
// lexicographically otherwise (document values are strings). An empty
// range bound is unbounded, so one-sided comparisons (produced e.g. by the
// XQuery translation of `$x/year > "1854"`) work.
func (p Pred) Matches(value string) bool {
	switch p.Kind {
	case NoPred:
		return true
	case Eq:
		return value == p.Const
	case Contains:
		return xmltree.ContainsWord(value, p.Const)
	case Range:
		if p.Lo != "" {
			lo := compareValues(value, p.Lo)
			if lo < 0 || (lo == 0 && p.LoStrict) {
				return false
			}
		}
		if p.Hi != "" {
			hi := compareValues(value, p.Hi)
			if hi > 0 || (hi == 0 && p.HiStrict) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// compareValues compares two value strings numerically when possible.
func compareValues(a, b string) int {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// quoteLiteral quotes a predicate constant in the form the lexer reads
// back: only '\' and '"' are escaped, every other byte (including control
// characters) is written raw. Go-style %q escaping would not round-trip —
// the lexer has no escape table, it just skips a backslash and takes the
// next byte literally, so `\n` would come back as the letter 'n'.
func quoteLiteral(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '"' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

func (p Pred) String() string {
	switch p.Kind {
	case NoPred:
		return ""
	case Eq:
		return "=" + quoteLiteral(p.Const)
	case Contains:
		return "~" + quoteLiteral(p.Const)
	case Range:
		lb, rb := "[", "]"
		if p.LoStrict {
			lb = "("
		}
		if p.HiStrict {
			rb = ")"
		}
		return fmt.Sprintf(" in %s%s,%s%s", lb, quoteLiteral(p.Lo), quoteLiteral(p.Hi), rb)
	default:
		return "?"
	}
}

// Node is one tree-pattern node.
type Node struct {
	// Label is the element or attribute name.
	Label string
	// IsAttr marks attribute nodes (@name in Figure 2).
	IsAttr bool
	// Axis relates the node to its parent. For a pattern root, Child
	// means "must be the document root element" and Descendant (the
	// default) "may match anywhere in the document".
	Axis Axis
	// Val and Cont are the projection annotations of Section 4.
	Val  bool
	Cont bool
	// Pred is the node's value predicate, if any.
	Pred Pred
	// Var names the node as a value-join endpoint ($x in the syntax).
	Var string

	Children []*Node
	Parent   *Node
}

// Tree is one tree pattern.
type Tree struct {
	Root *Node
}

// JoinCond equates the values of two variable-bound nodes.
type JoinCond struct {
	A, B string // variable names
}

// Query is a list of tree patterns connected by value joins.
type Query struct {
	// Name optionally identifies the query (q1..q10 in the workload).
	Name     string
	Patterns []*Tree
	Joins    []JoinCond
}

// Errors returned by Validate and Parse.
var (
	ErrNoPatterns   = errors.New("pattern: query has no patterns")
	ErrUnknownVar   = errors.New("pattern: join references unknown variable")
	ErrDuplicateVar = errors.New("pattern: duplicate variable")
	ErrAttrChildren = errors.New("pattern: attribute nodes cannot have children")
	ErrContOnAttr   = errors.New("pattern: cont annotation on attribute node")
)

// Walk visits the nodes of a tree in document order (preorder).
func (t *Tree) Walk(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// Validate checks structural well-formedness: at least one pattern, parent
// pointers consistent, attribute nodes childless and without cont, join
// variables defined exactly once.
func (q *Query) Validate() error {
	if len(q.Patterns) == 0 {
		return ErrNoPatterns
	}
	seen := make(map[string]bool)
	for _, t := range q.Patterns {
		var err error
		t.Walk(func(n *Node) {
			if err != nil {
				return
			}
			if n.IsAttr {
				if len(n.Children) > 0 {
					err = fmt.Errorf("%w: @%s", ErrAttrChildren, n.Label)
					return
				}
				if n.Cont {
					err = fmt.Errorf("%w: @%s", ErrContOnAttr, n.Label)
					return
				}
			}
			for _, c := range n.Children {
				if c.Parent != n {
					err = fmt.Errorf("pattern: broken parent pointer under %s", n.Label)
					return
				}
			}
			if n.Var != "" {
				if seen[n.Var] {
					err = fmt.Errorf("%w: $%s", ErrDuplicateVar, n.Var)
					return
				}
				seen[n.Var] = true
			}
		})
		if err != nil {
			return err
		}
	}
	for _, j := range q.Joins {
		if !seen[j.A] {
			return fmt.Errorf("%w: $%s", ErrUnknownVar, j.A)
		}
		if !seen[j.B] {
			return fmt.Errorf("%w: $%s", ErrUnknownVar, j.B)
		}
	}
	return nil
}

// Labels returns the distinct node labels of the query (attribute labels
// prefixed with "@"), sorted — the LU/LUI look-up terms before key
// encoding.
func (q *Query) Labels() []string {
	set := make(map[string]bool)
	for _, t := range q.Patterns {
		t.Walk(func(n *Node) {
			l := n.Label
			if n.IsAttr {
				l = "@" + l
			}
			set[l] = true
		})
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// String renders the query in the textual syntax accepted by Parse.
func (q *Query) String() string {
	var b strings.Builder
	for i, t := range q.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		writeNode(&b, t.Root)
	}
	if len(q.Joins) > 0 {
		b.WriteString(" where ")
		for i, j := range q.Joins {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "$%s = $%s", j.A, j.B)
		}
	}
	return b.String()
}

func writeNode(b *strings.Builder, n *Node) {
	b.WriteString(n.Axis.String())
	if n.IsAttr {
		b.WriteString("@")
	}
	b.WriteString(n.Label)
	if n.Val || n.Cont {
		b.WriteString("{")
		if n.Val {
			b.WriteString("val")
		}
		if n.Cont {
			if n.Val {
				b.WriteString(",")
			}
			b.WriteString("cont")
		}
		b.WriteString("}")
	}
	if n.Pred.Kind != NoPred {
		b.WriteString(n.Pred.String())
	}
	if n.Var != "" {
		b.WriteString(" $" + n.Var)
	}
	if len(n.Children) > 0 {
		b.WriteString("[")
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			writeNode(b, c)
		}
		b.WriteString("]")
	}
}
