package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// keptExports lists the exported names under internal/ that no product code
// references, each with the reason it stays. Keys are "dir.Name" for
// functions, types, variables and constants and "dir.Type.Method" for
// methods, where dir is the package directory under internal/. A name may
// stay only as a paper ablation of the root bench_test.go, as the definition
// or oracle a test compares against, as a fault-injection or
// synchronisation hook that keeps a test deterministic, because ROADMAP
// reserves it, or because code asserts an interface it implements.
var keptExports = map[string]string{
	"twigjoin.MatchBinary":          "ablation: BenchmarkAblationTwigVsBinary's binary-join arm",
	"engine.EvalPatternOnDoc":       "ablation: BenchmarkEvalPattern, one pattern evaluated on a parsed document",
	"index.CheckLayout":             "oracle: the bulk layout and postings the bulk-loading tests hold every packed store to",
	"index.EncodePathsCompressed":   "oracle: the compressed path encoding the path-codec tests decode against",
	"index.EncodeIDsBinary":         "ablation: BenchmarkIDCodec, the headerless identifier stream without the blocked format",
	"workload.XMarkXQuery":          "oracle: the workload in XQuery syntax, which must answer like the pattern form",
	"cloud/kv.BatchGet":             "oracle: a read collected into items by key, which the store and chaos tests compare across stacks",
	"cloud/chaos.EveryNth":          "fault hook for kv.Retry's tests",
	"cloud/chaos.EveryNth.Injected": "fault hook: how many calls EveryNth failed",
	"cloud/chaos.Injector.SetRates": "fault hook: quiesces or raises injection mid-run",
	"core.Warehouse.ChaosInjector":  "fault hook: the injector whose rates SetRates changes",
	"core.Warehouse.RunQueryOnView": "synchronisation hook: a query against a pinned snapshot",
	"costmodel.UpdateCost":          "reserved by ROADMAP: prices the write-ahead log's puts",
	"costmodel.PerMillionUpdates":   "reserved by ROADMAP: normalises UpdateCost per million mutations",
}

// TestNoTestOnlyExports fails when an exported top-level name or method
// under internal/ has no reference outside _test.go files, comments and its
// own declaration, across this module and the benchmark module. A name is
// matched by identifier, not by type: any identifier spelled the same counts
// as a reference. Such a name is either dead (delete it), package-private in
// all but spelling (unexport it) or kept on purpose (list it in keptExports
// with its reason).
func TestNoTestOnlyExports(t *testing.T) {
	decls := exportedDecls(t, "internal")
	refs := identifierUses(t, ".")
	var unused []string
	for key, d := range decls {
		if refs[d.name] > d.declared {
			continue
		}
		if _, ok := keptExports[key]; !ok {
			unused = append(unused, key)
		}
	}
	var stale []string
	for key := range keptExports {
		d, ok := decls[key]
		if !ok || refs[d.name] > d.declared {
			stale = append(stale, key)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	for _, key := range unused {
		t.Errorf("%s is exported but only tests reference it: delete it, unexport it, or list it in keptExports with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("keptExports lists %s, which is gone or now has a product caller: drop the entry", key)
	}
}

// exportedDecl is one exported declaration: the identifier it declares and
// how many declarations under internal/ spell that same identifier (their
// own name tokens are not references).
type exportedDecl struct {
	name     string
	declared int
}

// exportedDecls returns the exported top-level names and methods declared
// in the non-test Go files under root.
func exportedDecls(t *testing.T, root string) map[string]*exportedDecl {
	t.Helper()
	out := map[string]*exportedDecl{}
	add := func(key, name string) {
		if d, ok := out[key]; ok {
			d.declared++
			return
		}
		out[key] = &exportedDecl{name: name, declared: 1}
	}
	walkGo(t, root, func(path string, f *ast.File) {
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), root+"/")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key := dir + "." + d.Name.Name
				if d.Recv != nil {
					key = dir + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				add(key, d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(dir+"."+s.Name.Name, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(dir+"."+n.Name, n.Name)
							}
						}
					}
				}
			}
		}
	})
	// A name declared in several places (a method on two types, say) has
	// that many declaring tokens; every other token spelling it is a use.
	byName := map[string]int{}
	for _, d := range out {
		byName[d.name] += d.declared
	}
	for _, d := range out {
		d.declared = byName[d.name]
	}
	return out
}

// recvType names a method receiver's type without its pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// identifierUses counts every identifier token in the non-test Go files
// under root (comments are not tokens the parser keeps as identifiers),
// except a method's receiver: naming a type there declares the method, it
// does not use the type.
func identifierUses(t *testing.T, root string) map[string]int {
	t.Helper()
	uses := map[string]int{}
	var count func(n ast.Node) bool
	count = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			uses[x.Name]++
		case *ast.FuncDecl:
			uses[x.Name.Name]++
			ast.Inspect(x.Type, count)
			if x.Body != nil {
				ast.Inspect(x.Body, count)
			}
			return false
		}
		return true
	}
	walkGo(t, root, func(_ string, f *ast.File) { ast.Inspect(f, count) })
	return uses
}

// walkGo parses every non-test Go file under root, including the
// benchmark module, and hands it to fn.
func walkGo(t *testing.T, root string, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsNameLiveCode holds the docs to the code. Every backticked Go name
// in DESIGN.md and README.md of the form pkg.Name, pkg.Type.Member or
// pkg.(*Type).Member, where pkg is a package under internal/, must be
// declared in that package's non-test code (a member is a method or a
// field); unexported names are checked only through a type. And every section of DESIGN or DESIGN.md that a Go file,
// README.md or the Makefile cites by its section sign and number must
// number a heading of DESIGN.md.
func TestDocsNameLiveCode(t *testing.T) {
	decls := liveDecls(t)
	codeSpan := regexp.MustCompile("`([^`\n]+)`")
	name := regexp.MustCompile(`^([a-z][a-z0-9]*)\.(?:\(\*?([A-Za-z_]\w*)\)|([A-Za-z_]\w*))(?:\.([A-Za-z_]\w*))?(?:[({\[].*)?$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, span := range codeSpan.FindAllStringSubmatch(dropFences(readFile(t, doc)), -1) {
			m := name.FindStringSubmatch(span[1])
			if m == nil || decls[m[1]] == nil {
				continue
			}
			key := m[2]
			if key == "" {
				key = m[3]
				if !ast.IsExported(key) {
					continue
				}
			}
			if m[4] != "" {
				key += "." + m[4]
			}
			if !decls[m[1]][key] {
				t.Errorf("%s names `%s`, which no non-test code under internal/ declares", doc, span[1])
			}
		}
	}

	headings := map[string]bool{}
	heading := regexp.MustCompile(`(?m)^#{2,3} (\w+(?:\.\w+)*)\.? `)
	for _, m := range heading.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		headings[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)*§\s*(\w+(?:\.\w+)*)`)
	var citing []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			citing = append(citing, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(citing, "README.md", "Makefile") {
		for _, m := range cite.FindAllStringSubmatch(readFile(t, path), -1) {
			if !headings[m[1]] {
				t.Errorf("%s cites DESIGN §%s, which is no heading of DESIGN.md", path, m[1])
			}
		}
	}
}

// liveDecls returns what the non-test files of each package under
// internal/ declare, by package name: top-level names, and methods, struct
// fields and interface methods as "Type.Member".
func liveDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	walkGo(t, "internal", func(_ string, f *ast.File) {
		names := out[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			out[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					names[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				} else {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var fields *ast.FieldList
						switch x := s.Type.(type) {
						case *ast.StructType:
							fields = x.Fields
						case *ast.InterfaceType:
							fields = x.Methods
						}
						for _, field := range fieldNames(fields) {
							names[s.Name.Name+"."+field] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	})
	return out
}

// fieldNames names the members of a field list, an embedded one by its
// type's name.
func fieldNames(fields *ast.FieldList) []string {
	if fields == nil {
		return nil
	}
	var out []string
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) > 0 {
			continue
		}
		typ := f.Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if sel, ok := typ.(*ast.SelectorExpr); ok {
			typ = sel.Sel
		}
		if id, ok := typ.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
	}
	return out
}

// dropFences blanks the fenced code blocks of a Markdown text, whose
// backticks are not code spans.
func dropFences(s string) string {
	var b strings.Builder
	fenced := false
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			b.WriteString("\n")
			continue
		}
		if fenced {
			b.WriteString("\n")
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
