package twigjoin

import (
	"testing"
	"testing/quick"

	"repro/internal/idblock"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func doc(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.Parse("t.xml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func tree(t *testing.T, src string) *pattern.Tree {
	t.Helper()
	return pattern.MustParse(src).Patterns[0]
}

func TestMatchSimpleTwig(t *testing.T) {
	d := doc(t, `<a><b><c/></b><d/></a>`)
	cases := []struct {
		q    string
		want bool
	}{
		{`//a[/b[/c], /d]`, true},
		{`//a[//c, /d]`, true},
		{`//a[/c]`, false},         // c is not a child of a
		{`//b[/c]`, true},          // twig rooted below the document root
		{`//a[/b[/d]]`, false},     // d not under b
		{`//d[/c]`, false},         // leaf with required child
		{`//a[/b, /d, /e]`, false}, // missing label
		{`/a[//c]`, true},          // child-axis root matches document root
		{`/b[/c]`, false},          // b is not the document root
	}
	for _, c := range cases {
		tr := tree(t, c.q)
		streams := StreamsFromDocument(tr, d)
		if got := Match(tr, streams); got != c.want {
			t.Errorf("Match(%s) = %v, want %v", c.q, got, c.want)
		}
		if got := MatchBinary(tr, streams); got != c.want {
			t.Errorf("MatchBinary(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestParentChildVsAncestorDescendant(t *testing.T) {
	// c is a grandchild of a: //a[/c] must fail, //a[//c] must succeed.
	d := doc(t, `<a><b><c/></b></a>`)
	pc := tree(t, `//a[/c]`)
	ad := tree(t, `//a[//c]`)
	if Match(pc, StreamsFromDocument(pc, d)) {
		t.Error("parent-child edge matched a grandchild")
	}
	if !Match(ad, StreamsFromDocument(ad, d)) {
		t.Error("ancestor-descendant edge missed a grandchild")
	}
}

func TestTwigNeedsCommonAncestorInstance(t *testing.T) {
	// Two items: one has the name, the other the payment. Path lookups
	// would accept; the twig join must reject a twig demanding both under
	// one item — the LUP false-positive case of Section 8.
	d := doc(t, `<site><item><name/></item><item><payment/></item></site>`)
	q := tree(t, `//item[/name, /payment]`)
	if Match(q, StreamsFromDocument(q, d)) {
		t.Error("twig matched features split across sibling items")
	}
	both := doc(t, `<site><item><name/><payment/></item></site>`)
	if !Match(q, StreamsFromDocument(q, both)) {
		t.Error("twig missed features on a single item")
	}
}

func TestCandidatesReturnRoots(t *testing.T) {
	d := doc(t, `<a><b><c/></b><b/><b><c/></b></a>`)
	q := tree(t, `//b[/c]`)
	c := Candidates(q, StreamsFromDocument(q, d))
	if len(c) != 2 {
		t.Fatalf("candidates = %v, want 2 roots", c)
	}
	if !idblock.IsSorted(c) {
		t.Error("candidates not in pre order")
	}
}

func TestAttributeStreams(t *testing.T) {
	d := doc(t, `<a id="1"><id>text</id></a>`)
	qAttr := tree(t, `//a[/@id]`)
	streams := StreamsFromDocument(qAttr, d)
	// The @id stream must contain only the attribute node, not the
	// element named id.
	var attrNode *pattern.Node
	qAttr.Walk(func(n *pattern.Node) {
		if n.IsAttr {
			attrNode = n
		}
	})
	if len(streams[attrNode]) != 1 {
		t.Fatalf("@id stream = %v", streams[attrNode])
	}
	if !Match(qAttr, streams) {
		t.Error("attribute twig did not match")
	}
}

func TestSemijoin(t *testing.T) {
	d := doc(t, `<a><b><c/></b><b/></a>`)
	var bs, cs Stream
	for _, n := range d.NodesByLabel("b") {
		bs = append(bs, n.ID)
	}
	for _, n := range d.NodesByLabel("c") {
		cs = append(cs, n.ID)
	}
	got := Semijoin(bs, cs, pattern.Child)
	if len(got) != 1 {
		t.Fatalf("Semijoin = %v", got)
	}
	if got := Semijoin(cs, bs, pattern.Child); len(got) != 0 {
		t.Errorf("inverted Semijoin = %v", got)
	}
}

func TestEmptyAndMissingStreams(t *testing.T) {
	q := tree(t, `//a[/b]`)
	if Match(q, Streams{}) {
		t.Error("matched with no streams")
	}
	if Match(nil, Streams{}) {
		t.Error("matched nil tree")
	}
}

// Differential property: on generated corpus documents and a pool of
// predicate-free patterns, Match and MatchBinary agree with each other and
// with a naive embedding search.
func TestMatchAgreesWithNaive(t *testing.T) {
	queries := []string{
		`//item[/name, /payment]`,
		`//item[//name]`,
		`//person[/profile[/education], /name]`,
		`//open_auction[/bidder[/increase], /type]`,
		`//site[//mail[/text]]`,
		`//closed_auction[/price]`,
		`//item[/mailbox[/mail[/text]], /location]`,
		`/site[//incategory]`,
		`//listitem[/text]`,
		`//annotation[/description[/text], /author]`,
	}
	cfg := xmark.DefaultConfig(40)
	cfg.TargetDocBytes = 3 << 10
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			q := tree(t, qs)
			streams := StreamsFromDocument(q, d)
			holistic := Match(q, streams)
			binary := MatchBinary(q, streams)
			naive := naiveMatch(q.Root, d)
			if holistic != naive || binary != naive {
				t.Errorf("doc %d query %s: holistic=%v binary=%v naive=%v",
					i, qs, holistic, binary, naive)
			}
		}
	}
}

// naiveMatch is an independent brute-force embedding check.
func naiveMatch(q *pattern.Node, d *xmltree.Document) bool {
	var matchesAt func(q *pattern.Node, n *xmltree.Node) bool
	matchesAt = func(q *pattern.Node, n *xmltree.Node) bool {
		if n.Label != q.Label || q.IsAttr != (n.Kind == xmltree.Attribute) {
			return false
		}
		for _, qc := range q.Children {
			found := false
			var scan func(m *xmltree.Node)
			scan = func(m *xmltree.Node) {
				for _, c := range m.Children {
					if found {
						return
					}
					if matchesAt(qc, c) {
						found = true
						return
					}
					if qc.Axis == pattern.Descendant {
						scan(c)
					}
				}
			}
			scan(n)
			if !found {
				return false
			}
		}
		return true
	}
	for _, n := range d.Nodes() {
		if q.Axis == pattern.Child && n.Parent != nil {
			continue
		}
		if matchesAt(q, n) {
			return true
		}
	}
	return false
}

// Property: Semijoin output is always a subset of its ancestor input and
// sorted.
func TestSemijoinProperty(t *testing.T) {
	f := func(seed uint32) bool {
		cfg := xmark.DefaultConfig(10)
		cfg.TargetDocBytes = 2 << 10
		gd := xmark.GenerateDoc(cfg, int(seed%10))
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			return false
		}
		var as, ds Stream
		for _, n := range d.NodesByLabel("item") {
			as = append(as, n.ID)
		}
		for _, n := range d.NodesByLabel("name") {
			ds = append(ds, n.ID)
		}
		out := Semijoin(as, ds, pattern.Descendant)
		if !idblock.IsSorted(out) || len(out) > len(as) {
			return false
		}
		in := map[xmltree.NodeID]bool{}
		for _, a := range as {
			in[a] = true
		}
		for _, o := range out {
			if !in[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
