package xquery

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func paintings(t *testing.T) []*xmltree.Document {
	t.Helper()
	var docs []*xmltree.Document
	for _, gd := range xmark.Paintings() {
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	return docs
}

func eval(t *testing.T, src string, docs []*xmltree.Document) *engine.Result {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	res, err := engine.EvalQueryOnDocs(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Figure 2's q1 in XQuery: (painting name, painter name) pairs.
func TestQ1Translation(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting
		return (string($p/name), string($p//painter/name))`, docs)
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	found := false
	for _, r := range res.Rows {
		if r.Cols[0] == "Olympia" && r.Cols[1] == "EdouardManet" {
			found = true
		}
	}
	if !found {
		t.Error("missing the Olympia row")
	}
}

// q2: the cont granularity — bare paths return the XML subtree.
func TestQ2ContentGranularity(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting where $p/year = "1854" return $p/description`, docs)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !strings.HasPrefix(res.Rows[0].Cols[0], "<description>") {
		t.Errorf("expected subtree serialization, got %q", res.Rows[0].Cols[0])
	}
}

// q3: contains().
func TestQ3Contains(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting
		where contains($p/name, "Lion")
		return string($p/painter/name/last)`, docs)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r.Cols[0] != "Delacroix" {
			t.Errorf("row = %v", r)
		}
	}
}

// q4: a range built from two one-sided comparisons.
func TestQ4Range(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting
		where $p/painter/name/last = "Manet" and $p/year > "1854" and $p/year <= "1865"
		return string($p/name)`, docs)
	var names []string
	for _, r := range res.Rows {
		names = append(names, r.Cols[0])
	}
	sort.Strings(names)
	want := "Le dejeuner sur lherbe;Music in the Tuileries;The Races at Longchamp"
	if strings.Join(names, ";") != want {
		t.Errorf("names = %v", names)
	}
}

// q5: the value join across documents.
func TestQ5ValueJoin(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $m in //museum, $p in //painting
		where $m//painting/@id = $p/@id and $p/painter/name/last = "Delacroix"
		return string($m/name)`, docs)
	museums := map[string]bool{}
	for _, r := range res.Rows {
		museums[r.Cols[0]] = true
	}
	for _, m := range []string{"Louvre", "National Gallery", "Art Institute"} {
		if !museums[m] {
			t.Errorf("missing %q in %v", m, museums)
		}
	}
	if museums["Musee dOrsay"] {
		t.Error("Musee dOrsay returned despite holding no Delacroix")
	}
}

func TestRelativeBinding(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting, $n in $p/painter/name
		where $n/last = "Monet"
		return string($n/first)`, docs)
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "Claude" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAttributeReturn(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting where contains($p/name, "Olympia") return $p/@id`, docs)
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "1863-1" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestTextStep(t *testing.T) {
	docs := paintings(t)
	res := eval(t, `for $p in //painting where $p/year = "1854" return $p/name/text()`, docs)
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "Christians Fleeing" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestFlippedComparison(t *testing.T) {
	docs := paintings(t)
	// literal on the left: "1854" < $p/year.
	res := eval(t, `for $p in //painting
		where "1860" < $p/year and $p/painter/name/last = "Delacroix"
		return string($p/name)`, docs)
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "The Lion Hunt Fragment" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestTranslationStructure(t *testing.T) {
	q, err := Parse(`for $m in //museum, $p in //painting
		where $m//painting/@id = $p/@id
		return (string($m/name), $p/name)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns = %d", len(q.Patterns))
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	// Rendering through the pattern syntax must reparse.
	if _, err := pattern.Parse(q.String()); err != nil {
		t.Errorf("translated query does not render/reparse: %v\n%s", err, q.String())
	}
	// Annotations: one val (museum name), one cont (painting name).
	var vals, conts int
	for _, tr := range q.Patterns {
		tr.Walk(func(n *pattern.Node) {
			if n.Val {
				vals++
			}
			if n.Cont {
				conts++
			}
		})
	}
	if vals < 1 || conts != 1 {
		t.Errorf("vals=%d conts=%d", vals, conts)
	}
}

func TestSamePatternJoin(t *testing.T) {
	// Both join endpoints inside one pattern: enforced as a filter.
	doc, _ := xmltree.Parse("d.xml", []byte(`<a><b>7</b><c>7</c><name>yes</name></a><!---->`))
	res := eval(t, `for $x in //a where $x/b = $x/c return string($x/name)`,
		[]*xmltree.Document{doc})
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "yes" {
		t.Errorf("rows = %v", res.Rows)
	}
	doc2, _ := xmltree.Parse("d2.xml", []byte(`<a><b>7</b><c>8</c><name>no</name></a>`))
	res = eval(t, `for $x in //a where $x/b = $x/c return string($x/name)`,
		[]*xmltree.Document{doc2})
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x in //a`,        // no return
		`for $x in //a return`, // empty return
		`for $x in //a where $x != "1" return $x`,             // != unsupported
		`for $x in //a where $x < $y return $x`,               // non-equality join
		`for $x in //a where "a" = "b" return $x`,             // literal = literal
		`for $x in //a return $y`,                             // undefined variable
		`for $x in //a, $x in //b return $x`,                  // duplicate variable
		`for $x in $y/a return $x`,                            // relative to undefined
		`for $x in //a/@id, $z in $x/b return $z`,             // navigate below attribute
		`for $x in //a where $x = "1" and $x = "2" return $x`, // conflicting preds
		`for $x in //a return $x extra`,                       // trailing input
		`for $x in //a where contains($x, $x) return $x`,      // contains needs literal
		`for $x in text() return $x`,                          // binding to text()
		`for $x in //a return string($x`,                      // unbalanced
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// Differential test: XQuery formulations of workload-like queries must
// return exactly the rows of their hand-written pattern counterparts.
func TestAgreesWithPatternQueries(t *testing.T) {
	cfg := xmark.DefaultConfig(100)
	cfg.TargetDocBytes = 4 << 10
	var docs []*xmltree.Document
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	cases := []struct{ xq, pat string }{
		{
			`for $i in //item where $i/location = "Zanzibar" return string($i/location)`,
			`//item[/location{val}="Zanzibar"]`,
		},
		{
			`for $p in //person where contains($p/profile/education, "Graduate") return string($p/name)`,
			`//person[/name{val}, /profile[/education~"Graduate"]]`,
		},
		{
			`for $a in //closed_auction where $a/price > "1000" and $a/price < "1100" return string($a/price)`,
			`//closed_auction[/price{val} in ("1000","1100")]`,
		},
	}
	for _, c := range cases {
		xq := eval(t, c.xq, docs)
		pat, err := engine.EvalQueryOnDocs(pattern.MustParse(c.pat), docs)
		if err != nil {
			t.Fatal(err)
		}
		key := func(res *engine.Result) string {
			var rows []string
			for _, r := range res.Rows {
				rows = append(rows, r.URI+"|"+strings.Join(r.Cols, "|"))
			}
			sort.Strings(rows)
			return strings.Join(rows, "\n")
		}
		if key(xq) != key(pat) {
			t.Errorf("mismatch for %q:\nxquery:\n%s\npattern:\n%s", c.xq, key(xq), key(pat))
		}
	}
}
