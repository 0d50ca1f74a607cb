package pattern

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseQ1(t *testing.T) {
	q := MustParse(`//painting[/name{val}, //painter[/name{val}]]`)
	if len(q.Patterns) != 1 {
		t.Fatalf("patterns = %d", len(q.Patterns))
	}
	root := q.Patterns[0].Root
	if root.Label != "painting" || root.Axis != Descendant {
		t.Errorf("root = %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d", len(root.Children))
	}
	name := root.Children[0]
	if name.Label != "name" || name.Axis != Child || !name.Val || name.Cont {
		t.Errorf("name = %+v", name)
	}
	painter := root.Children[1]
	if painter.Axis != Descendant || painter.Label != "painter" {
		t.Errorf("painter = %+v", painter)
	}
	if painter.Children[0].Label != "name" || !painter.Children[0].Val {
		t.Errorf("painter/name = %+v", painter.Children[0])
	}
}

func TestParsePredicates(t *testing.T) {
	q := MustParse(`//painting[/description{cont}, /year="1854"]`)
	year := q.Patterns[0].Children()[1]
	if year.Pred.Kind != Eq || year.Pred.Const != "1854" {
		t.Errorf("year pred = %+v", year.Pred)
	}
	desc := q.Patterns[0].Children()[0]
	if !desc.Cont || desc.Val {
		t.Errorf("description = %+v", desc)
	}

	q = MustParse(`//painting[/name~"Lion"]`)
	if p := q.Patterns[0].Children()[0].Pred; p.Kind != Contains || p.Const != "Lion" {
		t.Errorf("contains pred = %+v", p)
	}

	q = MustParse(`//painting[/year in ("1854","1865"]]`)
	p := q.Patterns[0].Children()[0].Pred
	if p.Kind != Range || p.Lo != "1854" || p.Hi != "1865" || !p.LoStrict || p.HiStrict {
		t.Errorf("range pred = %+v", p)
	}
}

// Children is a test helper: the root's children of pattern t.
func (t *Tree) Children() []*Node { return t.Root.Children }

func TestParseAttributesAndVars(t *testing.T) {
	q := MustParse(`//museum[/name{val}, //painting[/@id $a]], //painting[/@id $b, /painter[/name[/last="Delacroix"]]] where $a = $b`)
	if len(q.Patterns) != 2 || len(q.Joins) != 1 {
		t.Fatalf("patterns=%d joins=%d", len(q.Patterns), len(q.Joins))
	}
	if q.Joins[0] != (JoinCond{A: "a", B: "b"}) {
		t.Errorf("join = %+v", q.Joins[0])
	}
	if a := q.Patterns[0].Children()[1].Children[0]; a.Var != "a" || !a.IsAttr || a.Label != "id" {
		t.Errorf("$a = %+v", a)
	}
}

func TestParseBareLiteralAndEscapes(t *testing.T) {
	q := MustParse(`//a[/b=1854]`)
	if p := q.Patterns[0].Children()[0].Pred; p.Const != "1854" {
		t.Errorf("bare literal = %+v", p)
	}
	q = MustParse(`//a[/b="say \"hi\""]`)
	if p := q.Patterns[0].Children()[0].Pred; p.Const != `say "hi"` {
		t.Errorf("escaped literal = %+v", p)
	}
}

func TestParseRootAxis(t *testing.T) {
	q := MustParse(`/site[//item]`)
	if q.Patterns[0].Root.Axis != Child {
		t.Error("explicit / on root not parsed as Child")
	}
	q = MustParse(`site`)
	if q.Patterns[0].Root.Axis != Descendant {
		t.Error("default root axis must be Descendant")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//a[",
		"//a[/b",
		"//a[b]",
		`//a[/b="x]`,
		"//a{value}",
		"//a in (1,2",
		"//a $x, //b $x",          // duplicate variable
		"//a where $x = $y",       // unknown vars
		"//a[/@id{cont}]",         // cont on attribute
		"//a[/@id[/b]]",           // children on attribute
		"//a //b",                 // trailing input
		`//a[/b~"x" extra]`,       // junk in child list
		"//a[/b in [1,2] [/c]] ]", // stray bracket
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	if _, err := Parse("//a $x, //b $x"); !errors.Is(err, ErrDuplicateVar) {
		t.Errorf("duplicate var error = %v", err)
	}
	if _, err := Parse("//a where $x = $y"); !errors.Is(err, ErrUnknownVar) {
		t.Errorf("unknown var error = %v", err)
	}
}

func TestPredMatches(t *testing.T) {
	cases := []struct {
		pred  Pred
		value string
		want  bool
	}{
		{Pred{}, "anything", true},
		{Pred{Kind: Eq, Const: "1854"}, "1854", true},
		{Pred{Kind: Eq, Const: "1854"}, "1855", false},
		{Pred{Kind: Contains, Const: "Lion"}, "The Lion Hunt", true},
		{Pred{Kind: Contains, Const: "Lion"}, "The Lioness", false},
		{Pred{Kind: Range, Lo: "1854", Hi: "1865", LoStrict: true}, "1854", false},
		{Pred{Kind: Range, Lo: "1854", Hi: "1865", LoStrict: true}, "1855", true},
		{Pred{Kind: Range, Lo: "1854", Hi: "1865"}, "1865", true},
		{Pred{Kind: Range, Lo: "1854", Hi: "1865", HiStrict: true}, "1865", false},
		// Numeric, not lexicographic: "900.00" < "1000.00".
		{Pred{Kind: Range, Lo: "900", Hi: "1000"}, "950.50", true},
		{Pred{Kind: Range, Lo: "1000", Hi: "2000"}, "900.00", false},
		// Non-numeric ranges compare lexicographically.
		{Pred{Kind: Range, Lo: "apple", Hi: "mango"}, "grape", true},
		{Pred{Kind: Range, Lo: "apple", Hi: "mango"}, "zebra", false},
	}
	for _, c := range cases {
		if got := c.pred.Matches(c.value); got != c.want {
			t.Errorf("%+v.Matches(%q) = %v, want %v", c.pred, c.value, got, c.want)
		}
	}
}

func TestLabels(t *testing.T) {
	q := MustParse(`//museum[/name, //painting[/@id $a]], //painting[/@id $b] where $a = $b`)
	got := q.Labels()
	want := []string{"@id", "museum", "name", "painting"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Labels = %v, want %v", got, want)
	}
}

func TestOutputs(t *testing.T) {
	q := MustParse(`//painting[/name{val}, /description{cont}, /year]`)
	var outs []string
	q.Patterns[0].Walk(func(n *Node) {
		if n.Val {
			outs = append(outs, n.Label+"{val}")
		}
		if n.Cont {
			outs = append(outs, n.Label+"{cont}")
		}
	})
	if strings.Join(outs, " ") != "name{val} description{cont}" {
		t.Errorf("output annotations = %v", outs)
	}
}

// Property: String() round-trips through Parse for the whole workload-style
// grammar subset we generate here.
func TestStringParseRoundTrip(t *testing.T) {
	samples := []string{
		`//painting[/name{val}, //painter[/name{val}]]`,
		`//painting[/description{cont}, /year="1854"]`,
		`//painting[/name~"Lion", /painter[/name[/last{val}]]]`,
		`//painting[/name{val}, /painter[/name[/last="Manet"]], /year in ("1854","1865"]]`,
		`//museum[/name{val}, //painting[/@id $a]], //painting[/@id $b, /painter[/name[/last="Delacroix"]]] where $a = $b`,
		`/site[//item[/name{val,cont}]]`,
	}
	for _, src := range samples {
		q1 := MustParse(src)
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip changed: %q -> %q", q1.String(), q2.String())
		}
	}
}

// Property: for random small patterns built programmatically, String then
// Parse preserves structure.
func TestRoundTripProperty(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	var buildNode func(seed *uint64, depth int, axis Axis) *Node
	next := func(seed *uint64) uint64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return *seed >> 33
	}
	buildNode = func(seed *uint64, depth int, axis Axis) *Node {
		n := &Node{Label: labels[next(seed)%4], Axis: axis}
		switch next(seed) % 5 {
		case 0:
			n.Val = true
		case 1:
			n.Cont = true
		case 2:
			n.Pred = Pred{Kind: Eq, Const: "v"}
		case 3:
			n.Pred = Pred{Kind: Range, Lo: "1", Hi: "5", HiStrict: next(seed)%2 == 0}
		}
		if depth < 3 {
			kids := int(next(seed) % 3)
			for i := 0; i < kids; i++ {
				ax := Child
				if next(seed)%2 == 0 {
					ax = Descendant
				}
				c := buildNode(seed, depth+1, ax)
				c.Parent = n
				n.Children = append(n.Children, c)
			}
		}
		return n
	}
	f := func(s uint64) bool {
		q := &Query{Patterns: []*Tree{{Root: buildNode(&s, 0, Descendant)}}}
		q2, err := Parse(q.String())
		if err != nil {
			return false
		}
		return q.String() == q2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
