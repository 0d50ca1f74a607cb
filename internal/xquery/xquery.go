// Package xquery translates the paper's XQuery fragment into tree-pattern
// queries. Section 4 states that queries "are formulated in an expressive
// fragment of XQuery, amounting to value joins over tree patterns" and
// that the translation to the pattern notation is straightforward (it is
// omitted in the paper and given in [21]); this package implements it.
//
// Supported fragment (FLWR without let/order by):
//
//	query   := 'for' binding (',' binding)*
//	           ('where' cond ('and' cond)*)?
//	           'return' ret
//	binding := '$'NAME 'in' source
//	source  := path            -- absolute: anchors a new tree pattern
//	         | '$'NAME path    -- relative: extends the other variable's tree
//	path    := ('/' | '//') test path?
//	test    := NCName | '@'NCName
//	cond    := operand cmp operand
//	         | 'contains(' operand ',' literal ')'
//	operand := '$'NAME path? | literal
//	cmp     := '=' | '!=' is not supported | '<' | '<=' | '>' | '>='
//	ret     := retitem (',' retitem)*   -- optionally parenthesized
//	retitem := '$'NAME path?                    -- cont: the XML subtree
//	         | 'string(' '$'NAME path? ')'      -- val: the string value
//	         | '$'NAME path '/text()'           -- val
//	         | '$'NAME '/@'NCName               -- val of the attribute
//
// Translation rules, mirroring Section 4's annotations:
//
//   - each absolute binding roots one tree pattern; relative bindings and
//     every path used in conditions or the return clause add branches;
//   - comparing a variable path with a literal attaches an equality
//     predicate; contains() attaches a containment predicate; </<=/>/>=
//     against literals combine into the range predicate a ≤ val ≤ b;
//   - comparing two variable paths creates a value join (the dashed lines
//     of Figure 2), whether or not the variables live in the same pattern;
//   - return items yield cont or val annotations per the forms above.
package xquery

import (
	"fmt"
	"strings"

	"repro/internal/pattern"
)

// Parse translates an XQuery string into a pattern query.
func Parse(src string) (*pattern.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("xquery: %w", err)
	}
	p := &parser{toks: toks}
	q, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("xquery: parsing %q: %w", src, err)
	}
	return q, nil
}

// --- lexer ---------------------------------------------------------------

type tkind uint8

const (
	tEOF tkind = iota
	tName
	tVar    // $name
	tString // "..." or '...'
	tSlash
	tDSlash
	tAt
	tComma
	tLParen
	tRParen
	tCmp // = != < <= > >=
)

type tok struct {
	kind tkind
	text string
	pos  int
}

func lex(src string) ([]tok, error) {
	var out []tok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/':
			if i+1 < len(src) && src[i+1] == '/' {
				out = append(out, tok{tDSlash, "//", i})
				i += 2
			} else {
				out = append(out, tok{tSlash, "/", i})
				i++
			}
		case c == '@':
			out = append(out, tok{tAt, "@", i})
			i++
		case c == ',':
			out = append(out, tok{tComma, ",", i})
			i++
		case c == '(':
			out = append(out, tok{tLParen, "(", i})
			i++
		case c == ')':
			out = append(out, tok{tRParen, ")", i})
			i++
		case c == '=':
			out = append(out, tok{tCmp, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				out = append(out, tok{tCmp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("unexpected '!' at %d", i)
			}
		case c == '<' || c == '>':
			op := string(c)
			i++
			if i < len(src) && src[i] == '=' {
				op += "="
				i++
			}
			out = append(out, tok{tCmp, op, i})
		case c == '$':
			j := i + 1
			for j < len(src) && isNameByte(src[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("empty variable name at %d", i)
			}
			out = append(out, tok{tVar, src[i+1 : j], i})
			i = j
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != quote {
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("unterminated string at %d", i)
			}
			out = append(out, tok{tString, b.String(), i})
			i = j + 1
		case isNameByte(c):
			j := i
			for j < len(src) && isNameByte(src[j]) {
				j++
			}
			out = append(out, tok{tName, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q at %d", c, i)
		}
	}
	out = append(out, tok{kind: tEOF, pos: len(src)})
	return out, nil
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.'
}

// --- parser --------------------------------------------------------------

type step struct {
	axis   pattern.Axis
	label  string
	isAttr bool
	isText bool // trailing text()
}

type operand struct {
	isVar   bool
	varName string
	steps   []step
	lit     string
}

type cond struct {
	op   string
	l, r operand
}

type retItem struct {
	varName string
	steps   []step
	val     bool // string(...) / text() / attribute => val, else cont
}

type binding struct {
	varName string
	relTo   string // "" for absolute bindings
	steps   []step
}

type parser struct {
	toks []tok
	i    int
}

func (p *parser) peek() tok { return p.toks[p.i] }
func (p *parser) next() tok { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expectName(word string) error {
	t := p.next()
	if t.kind != tName || t.text != word {
		return fmt.Errorf("expected %q, got %q at %d", word, t.text, t.pos)
	}
	return nil
}

func (p *parser) parse() (*pattern.Query, error) {
	if err := p.expectName("for"); err != nil {
		return nil, err
	}
	var binds []binding
	for {
		b, err := p.parseBinding()
		if err != nil {
			return nil, err
		}
		binds = append(binds, b)
		if p.peek().kind == tComma {
			p.next()
			continue
		}
		break
	}
	var conds []cond
	if t := p.peek(); t.kind == tName && t.text == "where" {
		p.next()
		for {
			c, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
			if t := p.peek(); t.kind == tName && t.text == "and" {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	rets, err := p.parseReturn()
	if err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tEOF {
		return nil, fmt.Errorf("trailing input %q at %d", t.text, t.pos)
	}
	return translate(binds, conds, rets)
}

func (p *parser) parseBinding() (binding, error) {
	v := p.next()
	if v.kind != tVar {
		return binding{}, fmt.Errorf("expected variable, got %q at %d", v.text, v.pos)
	}
	if err := p.expectName("in"); err != nil {
		return binding{}, err
	}
	b := binding{varName: v.text}
	if p.peek().kind == tVar {
		b.relTo = p.next().text
	}
	steps, err := p.parsePath(b.relTo == "")
	if err != nil {
		return binding{}, err
	}
	if len(steps) == 0 {
		return binding{}, fmt.Errorf("binding of $%s has an empty path", v.text)
	}
	b.steps = steps
	return b, nil
}

// parsePath parses ('/'|'//') test ... sequences. required demands at least
// one step.
func (p *parser) parsePath(required bool) ([]step, error) {
	var steps []step
	for {
		t := p.peek()
		var axis pattern.Axis
		switch t.kind {
		case tSlash:
			axis = pattern.Child
		case tDSlash:
			axis = pattern.Descendant
		default:
			if required && len(steps) == 0 {
				return nil, fmt.Errorf("expected path at %d", t.pos)
			}
			return steps, nil
		}
		p.next()
		nt := p.next()
		s := step{axis: axis}
		switch nt.kind {
		case tAt:
			name := p.next()
			if name.kind != tName {
				return nil, fmt.Errorf("expected attribute name at %d", name.pos)
			}
			s.isAttr = true
			s.label = name.text
		case tName:
			if nt.text == "text" && p.peek().kind == tLParen {
				p.next()
				if c := p.next(); c.kind != tRParen {
					return nil, fmt.Errorf("expected ')' after text( at %d", c.pos)
				}
				s.isText = true
			} else {
				s.label = nt.text
			}
		default:
			return nil, fmt.Errorf("expected name step, got %q at %d", nt.text, nt.pos)
		}
		steps = append(steps, s)
		if s.isAttr || s.isText {
			return steps, nil
		}
	}
}

func (p *parser) parseCond() (cond, error) {
	if t := p.peek(); t.kind == tName && t.text == "contains" {
		p.next()
		if c := p.next(); c.kind != tLParen {
			return cond{}, fmt.Errorf("expected '(' at %d", c.pos)
		}
		l, err := p.parseOperand()
		if err != nil {
			return cond{}, err
		}
		if c := p.next(); c.kind != tComma {
			return cond{}, fmt.Errorf("expected ',' in contains at %d", c.pos)
		}
		r, err := p.parseOperand()
		if err != nil {
			return cond{}, err
		}
		if c := p.next(); c.kind != tRParen {
			return cond{}, fmt.Errorf("expected ')' at %d", c.pos)
		}
		return cond{op: "contains", l: l, r: r}, nil
	}
	l, err := p.parseOperand()
	if err != nil {
		return cond{}, err
	}
	op := p.next()
	if op.kind != tCmp {
		return cond{}, fmt.Errorf("expected comparison, got %q at %d", op.text, op.pos)
	}
	if op.text == "!=" {
		return cond{}, fmt.Errorf("'!=' is outside the supported fragment (offset %d)", op.pos)
	}
	r, err := p.parseOperand()
	if err != nil {
		return cond{}, err
	}
	return cond{op: op.text, l: l, r: r}, nil
}

func (p *parser) parseOperand() (operand, error) {
	t := p.peek()
	switch t.kind {
	case tVar:
		p.next()
		steps, err := p.parsePath(false)
		if err != nil {
			return operand{}, err
		}
		return operand{isVar: true, varName: t.text, steps: steps}, nil
	case tString, tName:
		p.next()
		return operand{lit: t.text}, nil
	default:
		return operand{}, fmt.Errorf("expected operand, got %q at %d", t.text, t.pos)
	}
}

func (p *parser) parseReturn() ([]retItem, error) {
	paren := false
	if p.peek().kind == tLParen {
		paren = true
		p.next()
	}
	var items []retItem
	for {
		it, err := p.parseRetItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if p.peek().kind == tComma {
			p.next()
			continue
		}
		break
	}
	if paren {
		if c := p.next(); c.kind != tRParen {
			return nil, fmt.Errorf("expected ')' closing return at %d", c.pos)
		}
	}
	return items, nil
}

func (p *parser) parseRetItem() (retItem, error) {
	t := p.peek()
	if t.kind == tName && t.text == "string" {
		p.next()
		if c := p.next(); c.kind != tLParen {
			return retItem{}, fmt.Errorf("expected '(' at %d", c.pos)
		}
		v := p.next()
		if v.kind != tVar {
			return retItem{}, fmt.Errorf("expected variable in string() at %d", v.pos)
		}
		steps, err := p.parsePath(false)
		if err != nil {
			return retItem{}, err
		}
		if c := p.next(); c.kind != tRParen {
			return retItem{}, fmt.Errorf("expected ')' at %d", c.pos)
		}
		return retItem{varName: v.text, steps: steps, val: true}, nil
	}
	if t.kind != tVar {
		return retItem{}, fmt.Errorf("expected return item, got %q at %d", t.text, t.pos)
	}
	p.next()
	steps, err := p.parsePath(false)
	if err != nil {
		return retItem{}, err
	}
	it := retItem{varName: t.text, steps: steps}
	// $x/.../text() and $x/@a return string values; bare paths return the
	// XML subtree (cont), the natural granularity of XPath results.
	if n := len(steps); n > 0 && (steps[n-1].isText || steps[n-1].isAttr) {
		it.val = true
		if steps[n-1].isText {
			it.steps = steps[:n-1]
		}
	}
	return it, nil
}
