package index

import (
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// extractOptions is every combination of the extraction options the
// differential runs over: binary and text identifiers, with and without
// words, with and without path compression, at the default value cap and at
// one small enough to split identifier sets and path blocks.
func extractOptions() []Options {
	var out []Options
	for _, binary := range []bool{true, false} {
		for _, skipWords := range []bool{false, true} {
			for _, compress := range []bool{false, true} {
				for _, max := range []int{0, 48} {
					out = append(out, Options{BinaryIDs: binary, SkipWords: skipWords, CompressPaths: compress, MaxValueBytes: max})
				}
			}
		}
	}
	return out
}

// checkAgainstReference compares Extract with the by-definition loop on the
// whole Extraction: tables, entry order, values, Entries and Bytes.
func checkAgainstReference(t *testing.T, doc *xmltree.Document, opts []Options, strategies ...Strategy) {
	t.Helper()
	if len(strategies) == 0 {
		strategies = All()
	}
	for _, s := range strategies {
		for _, o := range opts {
			got, want := Extract(s, doc, o), extractReference(s, doc, o)
			if reflect.DeepEqual(got, want) {
				continue
			}
			t.Errorf("%s %s %+v: extraction differs from the reference", doc.URI, s.Name(), o)
			if got.Entries != want.Entries || got.Bytes != want.Bytes {
				t.Errorf("  entries %d, bytes %d; want %d, %d", got.Entries, got.Bytes, want.Entries, want.Bytes)
			}
			for table, we := range want.Tables {
				ge := got.Tables[table]
				for i := 0; i < len(we) && i < len(ge); i++ {
					if !reflect.DeepEqual(ge[i], we[i]) {
						t.Fatalf("  %s entry %d: got %q %q, want %q %q", table, i, ge[i].Key, ge[i].Values, we[i].Key, we[i].Values)
					}
				}
				if len(ge) != len(we) {
					t.Fatalf("  %s: %d entries, want %d", table, len(ge), len(we))
				}
			}
			t.FailNow()
		}
	}
}

func TestExtractMatchesReference(t *testing.T) {
	opts := extractOptions()
	// Every XMark document kind (the kinds cycle with period 20) at three
	// sizes, then the paintings corpus.
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		cfg := xmark.DefaultConfig(20)
		cfg.TargetDocBytes = size
		kinds := make(map[xmark.Kind]bool)
		for i := 0; i < cfg.Docs; i++ {
			if kinds[xmark.KindOf(i)] && size > 4<<10 {
				continue // one document per kind at the larger sizes
			}
			kinds[xmark.KindOf(i)] = true
			gd := xmark.GenerateDoc(cfg, i)
			checkAgainstReference(t, parseDoc(t, fmt.Sprintf("%s@%d", gd.URI, size), string(gd.Data)), opts)
		}
		if len(kinds) != 5 {
			t.Fatalf("generated %d document kinds, want 5", len(kinds))
		}
	}
	for _, gd := range xmark.Paintings() {
		checkAgainstReference(t, parseDoc(t, gd.URI, string(gd.Data)), opts)
	}
}

func TestExtractMatchesReferenceEdges(t *testing.T) {
	deep := func(n int) string {
		return strings.Repeat("<a>", n) + "x" + strings.Repeat("</a>", n)
	}
	cases := []struct{ name, src string }{
		{"one node", `<a/>`},
		{"empty text", `<a><b></b><c> </c><d>&#32;</d></a>`},
		{"slash and percent in keys", `<a d="07/04/2026" p="100%" q="%2F/"><b d="07/04/2026">50% off/on 1/2</b></a>`},
		{"value repeated on siblings", `<r><i c="x"/><i c="x"/><i c="y"/><j c="x"/></r>`},
		{"word repeated in and across text nodes", `<r><p>to be or not to be</p><p>be</p>be<q>be be</q>be</r>`},
		{"same label at two depths", `<a><a><a>x</a><b><a>x</a></b></a><b><a>y</a></b></a>`},
		{"key revisits an earlier prefix", `<r><a><t>w</t></a><b><t>w</t></b><a><t>w</t></a></r>`},
		{"name that is a prefix of another", `<r id="1" idx="1" i="d 1"><id>id</id></r>`},
		{"non-ASCII", `<café prix="3€"><naïve>déjà vu — déjà</naïve></café>`},
		{"kinds share their text", `<e e="e">e ee</e>`},
		{"mixed content", `<a>one<b>two</b>one<!-- c -->three<b>two</b></a>`},
		{"deep nesting", deep(300)},
	}
	for _, tc := range cases {
		checkAgainstReference(t, parseDoc(t, tc.name, tc.src), extractOptions())
	}
	// 10k levels make 10k paths of up to 30 KB under one key, 150 MB per
	// extraction that stores paths, and the reference walks 50M ancestors:
	// once, under the strategy that stores both paths and identifiers.
	if !testing.Short() {
		checkAgainstReference(t, parseDoc(t, "10k deep", deep(10_000)), []Options{{BinaryIDs: true}}, TwoLUPI)
	}
}

// FuzzExtractDifferential: for any document Parse accepts, Extract and the
// by-definition loop agree on the whole Extraction.
func FuzzExtractDifferential(f *testing.F) {
	seeds, err := filepath.Glob("../xmltree/testdata/fuzz/*/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seeds under ../xmltree/testdata/fuzz: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if src, ok := fuzzCorpusBytes(data); ok {
			f.Add(src, uint8(0))
		}
	}
	f.Add([]byte(`<a d="1/2" p="5%"><b>x x y</b><b>x</b></a>`), uint8(0xff))
	all := extractOptions()
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		doc, err := xmltree.Parse("fuzz.xml", data)
		if err != nil {
			t.Skip()
		}
		checkAgainstReference(t, doc, all[int(pick)%len(all):][:1])
	})
}

// fuzzCorpusBytes reads the one []byte argument of a Go fuzz corpus file.
func fuzzCorpusBytes(file []byte) ([]byte, bool) {
	lines := strings.Split(strings.TrimSpace(string(file)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
		return nil, false
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		return nil, false
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	return []byte(s), err == nil
}

// TestKeysAndPaths: the advisor's view of a document is what NodeKeys and
// PathOf give, each string once.
func TestKeysAndPaths(t *testing.T) {
	for _, gd := range append(xmark.Paintings(), xmark.GenerateDoc(xmark.DefaultConfig(4), 0)) {
		doc := parseDoc(t, gd.URI, string(gd.Data))
		wantKeys, wantPaths := make(map[string]bool), make(map[string]bool)
		for _, n := range doc.Nodes() {
			for _, k := range NodeKeys(n) {
				wantKeys[k] = true
				wantPaths[PathOf(n, k)] = true
			}
		}
		keys, paths := KeysAndPaths(doc)
		if !sort.StringsAreSorted(keys) {
			t.Errorf("%s: keys not sorted", gd.URI)
		}
		for name, pair := range map[string]struct {
			got  []string
			want map[string]bool
		}{"keys": {keys, wantKeys}, "paths": {paths, wantPaths}} {
			if len(pair.got) != len(pair.want) {
				t.Errorf("%s: %d %s, want %d", gd.URI, len(pair.got), name, len(pair.want))
			}
			for _, s := range pair.got {
				if !pair.want[s] {
					t.Errorf("%s: unexpected %s entry %q", gd.URI, name, s)
				}
			}
		}
	}
}

// TestExtractAllocsFollowDistinctKeys: extraction allocates per distinct key
// and per distinct path, not per node. The same document with every text
// repeated four times has four times the word occurrences and the same keys
// and paths, and must cost about the same number of allocations.
func TestExtractAllocsFollowDistinctKeys(t *testing.T) {
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 16 << 10
	gd := xmark.GenerateDoc(cfg, 0)
	once := parseDoc(t, gd.URI, string(gd.Data))
	var b strings.Builder
	var write func(n *xmltree.Node)
	write = func(n *xmltree.Node) {
		switch n.Kind {
		case xmltree.Text:
			for i := 0; i < 4; i++ {
				xml.EscapeText(&b, []byte(n.Text))
				b.WriteByte(' ')
			}
		case xmltree.Element:
			b.WriteString("<" + n.Label)
			for _, c := range n.Children {
				if c.Kind == xmltree.Attribute {
					b.WriteString(" " + c.Content())
				}
			}
			b.WriteString(">")
			for _, c := range n.Children {
				write(c)
			}
			b.WriteString("</" + n.Label + ">")
		}
	}
	write(once.Root)
	fourfold := parseDoc(t, gd.URI, b.String())
	if fourfold.NodeCount() != once.NodeCount() || fourfold.SourceBytes < 2*once.SourceBytes {
		t.Fatalf("fourfold document: %d nodes, %d bytes; once: %d nodes, %d bytes",
			fourfold.NodeCount(), fourfold.SourceBytes, once.NodeCount(), once.SourceBytes)
	}
	opts := DefaultOptions()
	if a, b := Extract(TwoLUPI, once, opts), Extract(TwoLUPI, fourfold, opts); a.Entries != b.Entries {
		t.Fatalf("entries differ: %d and %d", a.Entries, b.Entries)
	}
	allocs := func(doc *xmltree.Document) float64 {
		return testing.AllocsPerRun(20, func() { Extract(TwoLUPI, doc, opts) })
	}
	a1, a4 := allocs(once), allocs(fourfold)
	t.Logf("allocations per extraction: %.0f, with every text fourfold %.0f (%d nodes)", a1, a4, once.NodeCount())
	if a4 > 1.25*a1 {
		t.Errorf("allocations grew from %.0f to %.0f with the text repeated four times", a1, a4)
	}
}
