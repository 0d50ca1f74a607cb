package engine

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/twigjoin"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func parseCorpus(t *testing.T, docs []xmark.Doc) []*xmltree.Document {
	t.Helper()
	out := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		var err error
		out[i], err = xmltree.Parse(d.URI, d.Data)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func paintings(t *testing.T) []*xmltree.Document {
	return parseCorpus(t, xmark.Paintings())
}

func sortedRows(res *Result) []string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r.URI+" | "+strings.Join(r.Cols, " | "))
	}
	sort.Strings(out)
	return out
}

// Figure 2's q1: (painting name, painter name) pairs.
func TestQ1PaintingAndPainterNames(t *testing.T) {
	docs := paintings(t)
	q := pattern.MustParse(`//painting[/name{val}, //painter[/name{val}]]`)
	res, err := EvalQueryOnDocs(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
	found := false
	for _, r := range res.Rows {
		if r.Cols[0] == "Olympia" && r.Cols[1] == "EdouardManet" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing Olympia row in %v", sortedRows(res))
	}
	// Every painting document contributes exactly one row; museums none.
	if len(res.Rows) != 9 {
		t.Errorf("rows = %d, want 9 (2 Figure 3 + 7 extended)", len(res.Rows))
	}
}

// Figure 2's q2: descriptions of paintings from 1854.
func TestQ2DescriptionsOf1854(t *testing.T) {
	docs := paintings(t)
	q := pattern.MustParse(`//painting[/description{cont}, /year="1854"]`)
	res, err := EvalQueryOnDocs(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	if !strings.HasPrefix(res.Rows[0].Cols[0], "<description>") {
		t.Errorf("cont must serialize the subtree, got %q", res.Rows[0].Cols[0])
	}
}

// Figure 2's q3: last names of painters of a painting whose name contains
// the word Lion.
func TestQ3ContainsLion(t *testing.T) {
	docs := paintings(t)
	q := pattern.MustParse(`//painting[/name~"Lion", /painter[/name[/last{val}]]]`)
	res, err := EvalQueryOnDocs(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	// "The Lion Hunt" (delacroix.xml) and "The Lion Hunt Fragment".
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", sortedRows(res))
	}
	for _, r := range res.Rows {
		if r.Cols[0] != "Delacroix" {
			t.Errorf("row = %v", r)
		}
	}
}

// Figure 2's q4: Manet paintings created in (1854, 1865].
func TestQ4ManetRange(t *testing.T) {
	docs := paintings(t)
	q := pattern.MustParse(`//painting[/name{val}, /painter[/name[/last="Manet"]], /year in ("1854","1865"]]`)
	res, err := EvalQueryOnDocs(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range res.Rows {
		names = append(names, r.Cols[0])
	}
	sort.Strings(names)
	want := []string{"Le dejeuner sur lherbe", "Music in the Tuileries", "The Races at Longchamp"}
	if strings.Join(names, ";") != strings.Join(want, ";") {
		t.Errorf("names = %v, want %v", names, want)
	}
}

// Figure 2's q5 (value join): museums exposing paintings by Delacroix.
func TestQ5ValueJoin(t *testing.T) {
	docs := paintings(t)
	q := pattern.MustParse(`//museum[/name{val}, //painting[/@id $a]], //painting[/@id $b, /painter[/name[/last="Delacroix"]]] where $a = $b`)
	res, err := EvalQueryOnDocs(q, docs)
	if err != nil {
		t.Fatal(err)
	}
	museums := map[string]bool{}
	for _, r := range res.Rows {
		museums[r.Cols[0]] = true
		if !strings.Contains(r.URI, "+") {
			t.Errorf("joined row URI %q lacks both documents", r.URI)
		}
	}
	// Louvre (1830-1, 1854-2), National Gallery (1854-1), Art Institute (1861-1).
	for _, m := range []string{"Louvre", "National Gallery", "Art Institute"} {
		if !museums[m] {
			t.Errorf("missing museum %q in %v", m, museums)
		}
	}
	if museums["Musee dOrsay"] {
		t.Error("Musee dOrsay has no Delacroix but was returned")
	}
}

func TestValAndContTogether(t *testing.T) {
	doc, _ := xmltree.Parse("d.xml", []byte(`<a><b>x<c>y</c></b></a>`))
	q := pattern.MustParse(`//b{val,cont}`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0].Cols[0] != "xy" {
		t.Errorf("val = %q", res.Rows[0].Cols[0])
	}
	if res.Rows[0].Cols[1] != "<b>x<c>y</c></b>" {
		t.Errorf("cont = %q", res.Rows[0].Cols[1])
	}
}

func TestAttributeValProjection(t *testing.T) {
	doc, _ := xmltree.Parse("d.xml", []byte(`<a id="42"/>`))
	q := pattern.MustParse(`//a[/@id{val}]`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "42" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSetSemantics(t *testing.T) {
	// Two embeddings produce the same output values: one row.
	doc, _ := xmltree.Parse("d.xml", []byte(`<a><b>same</b><b>same</b></a>`))
	q := pattern.MustParse(`//a[/b{val}]`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v, want deduplicated single row", res.Rows)
	}
}

func TestNoAnnotationsMatchYieldsOneEmptyRow(t *testing.T) {
	doc, _ := xmltree.Parse("d.xml", []byte(`<a><b/></a>`))
	q := pattern.MustParse(`//a[/b]`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Cols) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPredicateOnElementValueUsesTextConcat(t *testing.T) {
	doc, _ := xmltree.Parse("d.xml", []byte(`<a><b>hello <c>world</c></b></a>`))
	q := pattern.MustParse(`//b="hello world"`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("value concatenation predicate failed: %v", res.Rows)
	}
}

func TestEvalPatternOnDocSeparatesPatterns(t *testing.T) {
	docs := paintings(t)
	tr := pattern.MustParse(`//painting[/name{val}]`).Patterns[0]
	var total int
	for _, d := range docs {
		total += len(EvalPatternOnDoc(tr, d))
	}
	if total != 9 {
		t.Errorf("pattern rows = %d, want 9", total)
	}
}

func TestMatchesAgreesWithTwigJoinOnXmark(t *testing.T) {
	cfg := xmark.DefaultConfig(40)
	cfg.TargetDocBytes = 3 << 10
	queries := []string{
		`//item[/name, /payment]`,
		`//person[/profile[/education]]`,
		`//open_auction[/bidder[/increase], /type]`,
		`//item[/mailbox[/mail[/text]], /location]`,
		`//site[//incategory]`,
	}
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			tr := pattern.MustParse(qs).Patterns[0]
			// Predicate-free patterns: engine embedding search must agree
			// with the holistic twig join over label streams.
			want := twigjoin.Match(tr, twigjoin.StreamsFromDocument(tr, d))
			if got := Matches(tr, d); got != want {
				t.Errorf("doc %d query %s: engine=%v twig=%v", i, qs, got, want)
			}
		}
	}
}

func TestJoinVariableSharedWithVal(t *testing.T) {
	// A node can be both an output and a join endpoint.
	a, _ := xmltree.Parse("a.xml", []byte(`<x><k>7</k></x>`))
	b, _ := xmltree.Parse("b.xml", []byte(`<y><k>7</k><v>hit</v></y>`))
	q := pattern.MustParse(`//x[/k{val} $p], //y[/k $q, /v{val}] where $p = $q`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "7" || res.Rows[0].Cols[1] != "hit" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	a, _ := xmltree.Parse("a.xml", []byte(`<x><k>1</k></x>`))
	b, _ := xmltree.Parse("b.xml", []byte(`<y><k>1</k><m>2</m></y>`))
	c, _ := xmltree.Parse("c.xml", []byte(`<z><m>2</m><out>deep</out></z>`))
	q := pattern.MustParse(`//x[/k $a], //y[/k $b, /m $c], //z[/m $d, /out{val}] where $a = $b, $c = $d`)
	res, err := EvalQueryOnDocs(q, []*xmltree.Document{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Cols[0] != "deep" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalQueryOnDocSetsRestrictsPerPattern(t *testing.T) {
	docs := paintings(t)
	q := pattern.MustParse(`//museum[/name{val}, //painting[/@id $a]], //painting[/@id $b, /painter[/name[/last="Delacroix"]]] where $a = $b`)
	// Restrict the museum pattern to a single museum document.
	var museumDocs, paintingDocs []*xmltree.Document
	for _, d := range docs {
		if strings.HasPrefix(d.URI, "museum-1") {
			museumDocs = append(museumDocs, d)
		}
		if strings.HasPrefix(d.URI, "painting-") || d.URI == "delacroix.xml" || d.URI == "manet.xml" {
			paintingDocs = append(paintingDocs, d)
		}
	}
	res, err := EvalQueryOnDocSets(q, [][]*xmltree.Document{museumDocs, paintingDocs})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Cols[0] != "Louvre" {
			t.Errorf("unexpected museum %q", r.Cols[0])
		}
	}
	if len(res.Rows) == 0 {
		t.Error("restricted evaluation returned nothing")
	}
}

func TestEvalQueryErrors(t *testing.T) {
	q := pattern.MustParse(`//a, //b`)
	if _, err := EvalQueryOnDocSets(q, [][]*xmltree.Document{nil}); err == nil {
		t.Error("mismatched doc sets accepted")
	}
	bad := &pattern.Query{}
	if _, err := EvalQueryOnDocs(bad, nil); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestResultBytes(t *testing.T) {
	r := &Result{Rows: []Row{{Cols: []string{"abc", "de"}}, {Cols: []string{"f"}}}}
	if got := r.Bytes(); got != 6 {
		t.Errorf("Bytes = %d, want 6", got)
	}
}

func TestColumnNames(t *testing.T) {
	q := pattern.MustParse(`//painting[/name{val}, /description{cont}, /@id{val}]`)
	got := ColumnNames(q)
	want := []string{"painting/name.val", "painting/description.cont", "painting/@id.val"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("ColumnNames = %v, want %v", got, want)
	}
}

// appendChildMatches is called once per pattern edge per candidate node; it
// must find its matches, in document order and on both axes, without
// allocating when the caller's slice has room.
func TestAppendChildMatchesDoesNotAllocate(t *testing.T) {
	doc, err := xmltree.Parse("d.xml", []byte(`<a id="1"><b>x</b><c><b id="2">y</b></c><b/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root
	for _, tc := range []struct {
		qc   pattern.Node
		want []int32 // pre ranks
	}{
		{pattern.Node{Label: "b", Axis: pattern.Child}, []int32{3, 9}},
		{pattern.Node{Label: "b", Axis: pattern.Descendant}, []int32{3, 6, 9}},
		{pattern.Node{Label: "id", IsAttr: true, Axis: pattern.Child}, []int32{2}},
		{pattern.Node{Label: "id", IsAttr: true, Axis: pattern.Descendant}, []int32{2, 7}},
		{pattern.Node{Label: "id", Axis: pattern.Descendant}, nil},
	} {
		buf := make([]*xmltree.Node, 1, 8)
		var got []*xmltree.Node
		allocs := testing.AllocsPerRun(100, func() {
			got = appendChildMatches(buf, root, &tc.qc)
		})
		if allocs != 0 {
			t.Errorf("%+v: %v allocs per call, want 0", tc.qc, allocs)
		}
		var pres []int32
		for _, n := range got[1:] {
			pres = append(pres, n.ID.Pre)
		}
		if len(pres) != len(tc.want) {
			t.Fatalf("%+v: matched %v, want %v", tc.qc, pres, tc.want)
		}
		for i := range pres {
			if pres[i] != tc.want[i] {
				t.Fatalf("%+v: matched %v, want %v", tc.qc, pres, tc.want)
			}
		}
	}
}

// A branch of a pattern that fills no column is an existence test: however
// many embeddings it has, it stops at the first, allocates nothing and
// multiplies no rows.
func TestOutputlessBranchAllocatesNothing(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<a><k>v</k>`)
	for i := 0; i < 200; i++ {
		b.WriteString(`<b id="1"><c>x</c><c>y</c></b>`)
	}
	b.WriteString(`</a>`)
	doc, err := xmltree.Parse("d.xml", []byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(pattern.MustParse(`//a[/k{val}, /b[/c="y", /@id], //c, /b[/c="z"]]`))
	root := p.roots[0]
	if len(root.emit) != 1 || len(root.tests) != 3 {
		t.Fatalf("%d emitting and %d output-less children, want 1 and 3", len(root.emit), len(root.tests))
	}
	want := []bool{true, true, false}
	allocs := testing.AllocsPerRun(100, func() {
		for i, k := range root.tests {
			if k.embedsBelow(doc.Root) != want[i] {
				t.Fatalf("branch %d: embedsBelow is %v", i, !want[i])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("the output-less branches allocate %v times per evaluation, want 0", allocs)
	}

	// Without the branch that fails: one row before any deduplication, from
	// a row slab, a row list and a candidate stack.
	p = newPlan(pattern.MustParse(`//a[/k{val}, /b[/c="y", /@id], //c]`))
	var rows []Row
	allocs = testing.AllocsPerRun(100, func() { rows = p.evalPattern(0, doc) })
	if len(rows) != 1 || rows[0].Cols[0] != "v" {
		t.Fatalf("rows %v, want the one of <k>", rows)
	}
	if allocs > 3 {
		t.Errorf("%v allocations for one row beside 600 embeddings of output-less branches, want at most 3", allocs)
	}
}
