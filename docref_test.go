package reticle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docRef is a backticked `pkg.Name` or `pkg.Type.Member`, with an optional
// call or type-argument suffix: `ir.StructuralHash(f)`, `cache.Store[V]`.
var docRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z]\\w*)(?:\\.([A-Za-z]\\w*))?(?:\\([^`]*\\)|\\[[^`]*\\])?`")

// goDecls is what the module's packages declare, by package name: the
// package-level identifiers, and each type's fields and methods.
type goDecls struct {
	top     map[string]bool
	members map[string]map[string]bool // type -> field or method
	methods map[string]bool            // every method, of any type
}

// declsByPackage parses every Go file under the repository, the benchmark
// module included, and indexes its declarations by package name.
func declsByPackage(t *testing.T) map[string]*goDecls {
	t.Helper()
	pkgs := map[string]*goDecls{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if name == "main" {
			return nil
		}
		g := pkgs[name]
		if g == nil {
			g = &goDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, methods: map[string]bool{}}
			pkgs[name] = g
		}
		member := func(typ, m string) {
			if g.members[typ] == nil {
				g.members[typ] = map[string]bool{}
			}
			g.members[typ][m] = true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					g.top[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				for {
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					} else if ix, ok := recv.(*ast.IndexExpr); ok {
						recv = ix.X
					} else {
						break
					}
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
				g.methods[d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						g.top[s.Name.Name] = true
						var fields *ast.FieldList
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, id := range fl.Names {
								member(s.Name.Name, id.Name)
							}
							if len(fl.Names) == 0 { // embedded: named by its type
								typ := fl.Type
								if s, ok := typ.(*ast.StarExpr); ok {
									typ = s.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								if id, ok := typ.(*ast.Ident); ok {
									member(s.Name.Name, id.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							g.top[id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestDocReferences checks that every backticked `pkg.Name` or
// `pkg.Type.Member` in README.md and DESIGN.md whose pkg is one of the
// module's packages names something declared: a package-level identifier,
// a method written `pkg.Method` (as in `csp.SetHints`), or a field or
// method of the named type. Snake-case names are metrics (`place.hint_cache_hits`)
// and `x.go` a file; neither is checked.
func TestDocReferences(t *testing.T) {
	pkgs := declsByPackage(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				g, name, member := pkgs[m[1]], m[2], m[3]
				if g == nil || name == "go" || strings.Contains(name, "_") || strings.Contains(member, "_") {
					continue
				}
				ok := member == "" && (g.top[name] || g.methods[name]) || member != "" && g.members[name][member]
				if !ok {
					t.Errorf("%s:%d: %s names nothing the module declares", doc, i+1, m[0])
				}
			}
		}
	}
}

// goTestFlags are the `go test` flags the docs may name, besides the
// flags the module's commands register.
var goTestFlags = map[string]bool{
	"bench": true, "benchmem": true, "count": true, "cpuprofile": true,
	"race": true, "run": true, "short": true, "update": true,
}

// registeredFlags lists the flag names that the module's Go files register
// through the flag package's constructors, on flag or on a FlagSet: the
// string literal that names each one.
func registeredFlags(t *testing.T) map[string]bool {
	t.Helper()
	nameArg := map[string]int{
		"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
		"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
	}
	flags := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, ok := nameArg[sel.Sel.Name]; ok && i < len(call.Args) {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return flags
}

// docFlag is a code span that starts with a flag: `-disk`, `-disk DIR`,
// `-race -count=5`. The first name is checked.
var docFlag = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:[ =]|$)`)

// TestDocFlags checks that every code span in README.md and DESIGN.md that
// starts with a flag names one that some command in the module registers,
// or one of goTestFlags, so a deleted flag cannot stay documented. Fenced
// code blocks are not spans and are not checked.
func TestDocFlags(t *testing.T) {
	flags := registeredFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var prose strings.Builder
		fenced := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				prose.WriteString(line + "\n")
			}
		}
		spans := strings.Split(prose.String(), "`")
		for i := 1; i < len(spans); i += 2 {
			m := docFlag.FindStringSubmatch(spans[i])
			if m != nil && !flags[m[1]] && !goTestFlags[m[1]] {
				t.Errorf("%s: `%s` names a flag no command registers", doc, spans[i])
			}
		}
	}
}

// endpointRow is a row of README.md's endpoint table: `POST /compile`.
var endpointRow = regexp.MustCompile("(?m)^\\| `((?:GET|POST) /[a-z]*)`")

// TestDocEndpoints checks README.md's endpoint table against the route
// table both tiers serve: every pattern registered through HandleFunc in
// the module's non-test code has a row, every row names a registered
// pattern, and one file registers them all.
func TestDocEndpoints(t *testing.T) {
	routes := map[string]bool{}
	files := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "HandleFunc" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if pattern, err := strconv.Unquote(lit.Value); err == nil {
					routes[pattern], files[p] = true, true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("routes are registered in %d files, want one route table: %v", len(files), files)
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range endpointRow.FindAllStringSubmatch(string(data), -1) {
		rows[m[1]] = true
		if !routes[m[1]] {
			t.Errorf("README.md: the endpoint table names `%s`, which no route registers", m[1])
		}
	}
	for pattern := range routes {
		if !rows[pattern] {
			t.Errorf("README.md: the endpoint table has no row for `%s`", pattern)
		}
	}
}
