package reticle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
