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
	"strconv"
	"strings"
	"testing"
)

// keptExports lists the exported names under internal/ that no product code
// references, each with the reason it stays. Keys are "dir.Name" for
// functions, types, variables and constants and "dir.Type.Method" for
// methods, where dir is the package directory under internal/. A name may
// stay only as a paper ablation of the root bench_test.go, as the definition
// or oracle a test compares against, as a fault-injection or
// synchronisation hook or a test clock that keeps a test deterministic,
// because ROADMAP reserves it, or because code asserts an interface it
// implements.
var keptExports = map[string]string{
	"twigjoin.MatchBinary":          "ablation: BenchmarkAblationTwigVsBinary's binary-join arm",
	"engine.EvalPatternOnDoc":       "ablation: BenchmarkEvalPattern, one pattern evaluated on a parsed document",
	"index.CheckLayout":             "oracle: the bulk layout and postings the bulk-loading tests hold every packed store to",
	"index.EncodePathsCompressed":   "oracle: the compressed path encoding the path-codec tests decode against",
	"index.EncodeIDsBinary":         "ablation: BenchmarkIDCodec, the headerless identifier stream without the blocked format",
	"workload.XMarkXQuery":          "oracle: the workload in XQuery syntax, which must answer like the pattern form",
	"cloud/kv.BatchGet":             "oracle: a read collected into items by key, which the store and chaos tests compare across stacks",
	"cloud/kv.Get":                  "oracle: one key's items collected from a read, which the store, chaos, index and core tests compare",
	"engine.Matches":                "oracle: whether a document embeds a pattern, which the evaluator's and the look-up's tests hold their answers to",
	"index.Posting.IDSet":           "oracle: a posting's identifiers, which the index and mutate tests compare across read paths",
	"idblock.Parse":                 "definition: the header-only read of a blocked blob that DESIGN §3.3 names, on the heap, which the codec, join and index tests parse with",
	"cloud/chaos.EveryNth":          "fault hook for kv.Retry's tests",
	"cloud/chaos.EveryNth.Injected": "fault hook: how many calls EveryNth failed",
	"cloud/chaos.Injector.SetRates": "fault hook: quiesces or raises injection mid-run",
	"core.Warehouse.ChaosInjector":  "fault hook: the injector whose rates SetRates changes",
	"core.Warehouse.RunQueryOnView": "synchronisation hook: a query against a pinned snapshot",
	"clock.NewStepped":              "test clock: the clock the SQS, chaos and live-pipeline tests step by hand",
	"clock.Stepped.BlockUntil":      "test clock: how a test waits until every live loop it drives waits on the clock",
	"costmodel.UpdateCost":          "reserved by ROADMAP: prices the write-ahead log's puts",
	"costmodel.PerMillionUpdates":   "reserved by ROADMAP: normalises UpdateCost per million mutations",
}

// TestNoTestOnlyExports fails when an exported top-level name or method
// under internal/ has no reference outside _test.go files, comments and its
// own declaration, across this module and the benchmark module. A top-level
// name is referenced where pkg.Name selects it through an import of its
// package, or where a file of its own package names it unqualified. A method
// is matched by identifier, not by type: any identifier spelled the same
// counts as a reference. Such a name is either dead (delete it),
// package-private in all but spelling (unexport it) or kept on purpose (list
// it in keptExports with its reason).
func TestNoTestOnlyExports(t *testing.T) {
	decls := exportedDecls(t, "internal")
	refs := collectUses(t, ".")
	used := func(key string, d *exportedDecl) bool {
		if d.method {
			return refs.idents[d.name] > d.declared
		}
		return refs.names[key] > 0
	}
	var unused []string
	for key, d := range decls {
		if used(key, d) {
			continue
		}
		if _, ok := keptExports[key]; !ok {
			unused = append(unused, key)
		}
	}
	var stale []string
	for key := range keptExports {
		d, ok := decls[key]
		if !ok || used(key, d) {
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

// pooledMemory lists the sync.Pools under internal/ that stay, each with the
// reason. Keys are "dir.name" for a pool a package-level variable holds and
// "dir.Type.field" for one a struct holds, where dir is the package
// directory under internal/. Any other memory a request reuses belongs to
// an owner that outlives the request, which a collection does not empty.
var pooledMemory = map[string]string{
	"xmltree.arenaPool":   "three parse callers share it (the query path, indexing and updates), and a build gains from the memory earlier warehouses left in it",
	"xmltree.scratchPool": "three parse callers share it, and a build gains from the memory earlier warehouses left in it",
	"index.extractPool":   "a build gains from the extraction buffers earlier warehouses left in it",
	"index.collectorPool": "a build gains from the extraction state earlier warehouses left in it",
	"index.packTables":    "a build gains from the commit state earlier warehouses left in it",
	"obs.Tracer.snaps":    "span snapshots, used only when tracing is on",
}

// TestNoPooledMemory fails when a non-test Go file under internal/ imports
// weak, or declares a sync.Pool that pooledMemory does not list, and when
// pooledMemory lists a pool that is gone.
func TestNoPooledMemory(t *testing.T) {
	pools := map[string]bool{}
	walkGo(t, "internal", func(path string, f *ast.File) {
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		syncName := ""
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == "weak":
				t.Errorf("%s imports weak: give the memory an owner instead", path)
			case p == "sync" && imp.Name != nil:
				syncName = imp.Name.Name
			case p == "sync":
				syncName = "sync"
			}
		}
		// holdsPool reports whether n spells sync.Pool.
		holdsPool := func(n ast.Node) (found bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
					x, ok := sel.X.(*ast.Ident)
					found = found || ok && x.Name == syncName
				}
				return !found
			})
			return syncName != "" && found
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if holdsPool(d) {
					pools[dir+"."+d.Name.Name+" (a function)"] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if holdsPool(s) {
								pools[dir+"."+n.Name] = true
							}
						}
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							if holdsPool(s) {
								pools[dir+"."+s.Name.Name] = true
							}
							continue
						}
						for _, field := range st.Fields.List {
							if !holdsPool(field.Type) {
								continue
							}
							for _, n := range fieldNames(&ast.FieldList{List: []*ast.Field{field}}) {
								pools[dir+"."+s.Name.Name+"."+n] = true
							}
						}
					}
				}
			}
		}
	})
	for _, key := range sortedKeys(pools) {
		if _, ok := pooledMemory[key]; !ok {
			t.Errorf("%s holds a sync.Pool: give the memory an owner, or list it in pooledMemory with a reason", key)
		}
	}
	for _, key := range sortedKeys(pooledMemory) {
		if !pools[key] {
			t.Errorf("pooledMemory lists %s, which holds no sync.Pool any more: drop the entry", key)
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exportedDecl is one exported declaration: the identifier it declares,
// whether it is a method and, for a method, how many declarations under
// internal/ spell that same identifier (their own name tokens are not
// references).
type exportedDecl struct {
	name     string
	method   bool
	declared int
}

// exportedDecls returns the exported top-level names and methods declared
// in the non-test Go files under root.
func exportedDecls(t *testing.T, root string) map[string]*exportedDecl {
	t.Helper()
	out := map[string]*exportedDecl{}
	add := func(key, name string, method bool) {
		if d, ok := out[key]; ok {
			d.declared++
			return
		}
		out[key] = &exportedDecl{name: name, method: method, declared: 1}
	}
	walkGo(t, root, func(path string, f *ast.File) {
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), root+"/")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					add(dir+"."+recvType(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, true)
				} else {
					add(dir+"."+d.Name.Name, d.Name.Name, false)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(dir+"."+s.Name.Name, s.Name.Name, false)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(dir+"."+n.Name, n.Name, false)
							}
						}
					}
				}
			}
		}
	})
	// A method name declared in several places (on two types, say), or
	// spelled by a top-level declaration too, has that many declaring
	// tokens; every other token spelling it is a use.
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

// uses counts the references in non-test Go files: idents every identifier
// token (comments are not tokens the parser keeps as identifiers), except a
// method's receiver, since naming a type there declares the method and does
// not use the type; names every reference to a top-level name of a package
// under internal/, keyed "dir.Name" as exportedDecls keys it, not counting
// its declaration.
type uses struct {
	idents map[string]int
	names  map[string]int
}

// collectUses counts the references in the non-test Go files under root.
func collectUses(t *testing.T, root string) uses {
	t.Helper()
	u := uses{idents: map[string]int{}, names: map[string]int{}}
	var count func(n ast.Node) bool
	count = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			u.idents[x.Name]++
		case *ast.FuncDecl:
			u.idents[x.Name.Name]++
			ast.Inspect(x.Type, count)
			if x.Body != nil {
				ast.Inspect(x.Body, count)
			}
			return false
		}
		return true
	}
	walkGo(t, root, func(path string, f *ast.File) {
		ast.Inspect(f, count)
		countNames(u.names, path, f)
	})
	return u
}

// countNames adds to names the references f makes to top-level names of
// packages under internal/: pkg.Name through an import of such a package,
// and, when f is in one, every identifier its declarations and bodies
// spell, but for the names they declare and the Sel of a selector (a field,
// a method or another package's name).
func countNames(names map[string]int, path string, f *ast.File) {
	const module = "repro/internal/"
	imports := map[string]string{} // local name to directory under internal/
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(p, module) {
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = strings.TrimPrefix(p, module)
	}
	own := ""
	if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
		own = strings.TrimPrefix(dir, "internal/")
	}
	declared := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declared[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n] = true
					}
				}
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			// Not the receiver: naming a type there declares the method.
			ast.Inspect(x.Type, visit)
			if x.Body != nil {
				ast.Inspect(x.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if dir, ok := imports[id.Name]; ok {
					names[dir+"."+x.Sel.Name]++
					return false
				}
			}
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			if own != "" && !declared[x] {
				names[own+"."+x.Name]++
			}
		}
		return true
	}
	for _, decl := range f.Decls {
		ast.Inspect(decl, visit)
	}
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
