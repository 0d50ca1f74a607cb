package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Random-pattern differential test: generate structurally random tree
// patterns over the corpus's actual label alphabet and check the engine
// against the brute-force oracle on every document. This explores corners
// the hand-picked query pool cannot.

var labelAlphabet = []string{
	"site", "regions", "item", "name", "location", "payment", "quantity",
	"description", "parlist", "listitem", "text", "mailbox", "mail",
	"from", "to", "person", "profile", "education", "age", "address",
	"city", "open_auction", "bidder", "increase", "type", "seller",
	"closed_auction", "price", "annotation", "nonexistent",
}

var attrAlphabet = []string{"id", "person", "category", "income"}

func randomPattern(rng *rand.Rand) *pattern.Tree {
	var build func(depth int, axis pattern.Axis, attrAllowed bool) *pattern.Node
	build = func(depth int, axis pattern.Axis, attrAllowed bool) *pattern.Node {
		n := &pattern.Node{Axis: axis}
		if attrAllowed && rng.Intn(6) == 0 {
			n.IsAttr = true
			n.Label = attrAlphabet[rng.Intn(len(attrAlphabet))]
		} else {
			n.Label = labelAlphabet[rng.Intn(len(labelAlphabet))]
		}
		switch rng.Intn(8) {
		case 0:
			n.Val = true
		case 1:
			if !n.IsAttr {
				n.Cont = true
			} else {
				n.Val = true
			}
		case 2:
			n.Pred = pattern.Pred{Kind: pattern.Contains, Const: "Zanzibar"}
		case 3:
			n.Pred = pattern.Pred{Kind: pattern.Eq, Const: "1"}
		case 4:
			n.Pred = pattern.Pred{Kind: pattern.Range, Lo: "1", Hi: "3000"}
		}
		if !n.IsAttr && depth < 3 {
			kids := rng.Intn(3)
			for i := 0; i < kids; i++ {
				axis := pattern.Child
				if rng.Intn(2) == 0 {
					axis = pattern.Descendant
				}
				c := build(depth+1, axis, true)
				c.Parent = n
				n.Children = append(n.Children, c)
			}
		}
		return n
	}
	// One pattern in six is rooted at the document root, half of those at
	// the label the XMark documents have there.
	if rng.Intn(6) == 0 {
		root := build(0, pattern.Child, false)
		if rng.Intn(2) == 0 {
			root.Label = "site"
		}
		return &pattern.Tree{Root: root}
	}
	return &pattern.Tree{Root: build(0, pattern.Descendant, false)}
}

// shapedDocs are documents over the label alphabet with the shapes the
// generated corpus lacks, each of them a case a projected parse must get
// right: a label nested in itself (parlist/listitem), one name as element and
// as attribute (person, category), mixed content under elements whose values
// queries read, attributes on elements no pattern is likely to name, and
// values that hold the predicates' constants.
var shapedDocs = []string{
	`<site><regions><item id="1"><name>Zan<text>zi</text>bar <seller person="1">1</seller></name>` +
		`<description><parlist><listitem><text>Zanzibar</text><parlist><listitem id="2"><text>1</text><parlist/></listitem>` +
		`<listitem>1</listitem></parlist></listitem></parlist></description>` +
		`<location>Zanzibar</location><quantity>1</quantity><payment>Zanzibar 1</payment></item></regions></site>`,
	`<site><person id="1" person="1"><person category="1">1</person><category id="3">Zanzibar</category>` +
		`<name>1</name><profile income="1"><education>1</education><age>7</age><profile><age>1</age></profile></profile>` +
		`<address><city>Zanzibar</city><address><city id="1">x</city></address></address></person>` +
		`<annotation><description>a<text>1</text>b<annotation category="1"><description>c &amp; d</description></annotation></description></annotation></site>`,
	`<item><site><open_auction id="1"><bidder><increase>1</increase><bidder><increase>2</increase></bidder></bidder>` +
		`<type>1</type><seller person="1"/><price>1</price></open_auction></site><name>1</name><name>1</name><item><name>1</name></item></item>`,
}

func TestEngineAgreesWithBruteForceOnRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 3 << 10
	var docs []*xmltree.Document
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	matched := 0
	for trial := 0; trial < 150; trial++ {
		tr := randomPattern(rng)
		q := &pattern.Query{Patterns: []*pattern.Tree{tr}}
		if err := q.Validate(); err != nil {
			t.Fatalf("generated invalid pattern: %v", err)
		}
		for _, doc := range docs {
			want := bruteRows(tr, doc)
			gotRows := EvalPatternOnDoc(tr, doc)
			got := make([][]string, len(gotRows))
			for j, r := range gotRows {
				got[j] = r.Cols
			}
			if canon(got) != canon(want) {
				t.Fatalf("trial %d doc %s pattern %s:\nengine:\n%s\nbrute:\n%s",
					trial, doc.URI, q.String(), canon(got), canon(want))
			}
			if len(got) > 0 {
				matched++
			}
		}
	}
	// Sanity: the generator must produce patterns that actually match
	// sometimes, or the test proves nothing.
	if matched < 20 {
		t.Fatalf("only %d (pattern, doc) pairs matched; generator too hostile", matched)
	}
}

// TestProjectedEvalAgreesWithBruteForce evaluates random patterns on documents
// parsed under the pattern's own projection and holds the rows to the
// brute-force oracle on the full documents; the rows must also come in the
// order they come in on the full documents.
func TestProjectedEvalAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	type source struct {
		uri  string
		data []byte
		full *xmltree.Document
	}
	var docs []source
	add := func(uri string, data []byte) {
		full, err := xmltree.Parse(uri, data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, source{uri, data, full})
	}
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 3 << 10
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		add(gd.URI, gd.Data)
	}
	for i, src := range shapedDocs {
		add(fmt.Sprintf("shaped-%d.xml", i), []byte(src))
	}
	// Patterns aimed at what a projection changes: a child axis that must not
	// reach through a dropped element, a descendant axis that must, labels
	// nested in themselves, attributes of dropped elements, one name as
	// element and attribute, values of mixed content, cont below dropped
	// ancestors, a rooted pattern. After them, random ones.
	var patterns []*pattern.Tree
	for _, text := range []string{
		`//person{val}[/age{cont}]`, `//person[/age{val}]`, `//person[//age{val}]`, `//item[//@id{val}]`, `//site[/@id{val}]`,
		`//parlist[/listitem[/text{val}]]`, `//listitem[//listitem{val}]`, `//listitem[/listitem]`, `//name{val}[//text{val}]`,
		`//person[/@person{val}, /person{val}]`, `//person[/@category{val}]`, `//category{val}[/@id]`, `//description{cont}`,
		`//annotation[//annotation[/description{cont}]]`, `/site[//bidder[/increase{val}]]`, `/item[/name{val}]`, `/site[/name{val}]`,
		`//open_auction[/bidder[/increase{val}], /type, //@person]`, `//bidder[/bidder[/increase{val}]]`, `//profile[/age{val} in ["1","9"]]`,
		`//item[/name~"Zanzibar", //text{val}]`, `//address{val}[//city="x"]`,
	} {
		patterns = append(patterns, pattern.MustParse(text).Patterns[0])
	}
	for len(patterns) < 1200 {
		patterns = append(patterns, randomPattern(rng))
	}
	matched, shapedMatched, rooted := 0, 0, 0
	for trial, tr := range patterns {
		q := &pattern.Query{Patterns: []*pattern.Tree{tr}}
		if err := q.Validate(); err != nil {
			t.Fatalf("generated invalid pattern: %v", err)
		}
		proj := ProjectionOf(q)
		for di, d := range docs {
			projected, err := xmltree.ParseProjected(d.uri, d.data, proj)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteRows(tr, d.full)
			onFull := EvalPatternOnDoc(tr, d.full)
			gotRows := EvalPatternOnDoc(tr, projected)
			got := make([][]string, len(gotRows))
			for j, r := range gotRows {
				got[j] = r.Cols
			}
			if canon(got) != canon(want) {
				t.Fatalf("trial %d doc %s pattern %s:\nprojected:\n%s\nbrute on the full document:\n%s",
					trial, d.uri, q.String(), canon(got), canon(want))
			}
			if !reflect.DeepEqual(gotRows, onFull) {
				t.Fatalf("trial %d doc %s pattern %s: the rows come in another order than on the full document:\n%v\n%v",
					trial, d.uri, q.String(), gotRows, onFull)
			}
			if Matches(tr, projected) != (len(want) > 0) || Matches(tr, d.full) != (len(want) > 0) {
				t.Fatalf("trial %d doc %s pattern %s: Matches disagrees with %d rows", trial, d.uri, q.String(), len(want))
			}
			if len(got) > 0 {
				matched++
				if di >= cfg.Docs {
					shapedMatched++
				}
				if tr.Root.Axis == pattern.Child {
					rooted++
				}
			}
		}
	}
	if matched < 200 || shapedMatched < 60 || rooted < 15 {
		t.Fatalf("%d (pattern, doc) pairs matched, %d on the shaped documents, %d rooted at the document root; generator too hostile", matched, shapedMatched, rooted)
	}
}
