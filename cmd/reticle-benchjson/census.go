package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Census sorts the exported identifiers of the module's internal packages
// by who refers to them (see takeCensus). Nothing gates on it.
type Census struct {
	// Dead names the identifiers that no non-test file refers to, and no
	// test file outside their own package either.
	Dead []string `json:"dead"`
	// TestOnly names each identifier that only test files refer to, some
	// of them another package's, followed by those packages in brackets.
	TestOnly []string `json:"test_only"`
	// InternalOnly counts the identifiers that only their own package's
	// non-test files refer to: exported, though nothing outside needs them.
	InternalOnly int `json:"internal_only"`
}

// stdMethods are the method names the standard library calls through an
// interface: a method of one of these names is referenced even when no
// file selects it.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Header": true, "Write": true, "WriteHeader": true, "Flush": true,
	"Read": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"LogValue": true, "Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// srcFile is one parsed file of a package, keyed by the package's import
// path: an external test package shares its directory's.
type srcFile struct {
	pkg  string
	test bool
	ast  *ast.File
}

// user is one package referring to an identifier, from its tests or not.
type user struct {
	pkg  string
	test bool
}

// takeCensus reads the module rooted at dir and, read explicitly because
// walkModule skips nested modules, the benchmark module at dir/benchmark.
// It returns the census of the root module's internal packages and the
// root module's non-test import edges between its own packages, each
// "from -> to", sorted.
//
// A package-level identifier is referenced where a file of its package
// names it or another file selects it through an import. A method is
// referenced where any file selects its name, or when stdMethods holds the
// name: both err on keeping.
func takeCensus(dir string) (*Census, []string, error) {
	mod, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	var files []srcFile
	names := map[string]string{} // import path -> package name
	var edges []string
	load := func(root string, edgesToo bool) error {
		return walkModule(root, func(key string, pkg *build.Package) error {
			names[key] = pkg.Name
			for _, imp := range pkg.Imports {
				if edgesToo && (imp == mod || strings.HasPrefix(imp, mod+"/")) {
					edges = append(edges, key+" -> "+imp)
				}
			}
			for i, group := range [][]string{pkg.GoFiles, pkg.TestGoFiles, pkg.XTestGoFiles} {
				for _, name := range group {
					f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
					if err != nil {
						return err
					}
					files = append(files, srcFile{key, i > 0, f})
				}
			}
			return nil
		})
	}
	if err := load(dir, true); err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
		if err := load(filepath.Join(dir, "benchmark"), false); err != nil {
			return nil, nil, err
		}
	}

	idents := map[string]map[user]bool{}   // "path.Name" -> users
	selected := map[string]map[user]bool{} // selected name -> users
	refer := func(m map[string]map[user]bool, key string, u user) {
		if m[key] == nil {
			m[key] = map[user]bool{}
		}
		m[key][u] = true
	}
	type export struct{ pkg, name string } // name is "Name" or "Type.Method"
	var exported []export
	for _, sf := range files {
		imports := map[string]string{}
		for _, spec := range sf.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			local := names[p]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			if local != "" {
				imports[local] = p
			}
		}
		u := user{sf.pkg, sf.test}
		if !sf.test && strings.HasPrefix(sf.pkg, mod+"/internal/") {
			for _, name := range exports(sf.ast) {
				exported = append(exported, export{sf.pkg, name})
			}
		}
		declared := map[*ast.Ident]bool{}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refer(idents, imports[x.Name]+"."+n.Sel.Name, u)
					return false
				}
				refer(selected, n.Sel.Name, u)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declared[n] {
					refer(idents, sf.pkg+"."+n.Name, u)
				}
			}
			return true
		}
		ast.Inspect(sf.ast, visit)
	}

	c := &Census{Dead: []string{}, TestOnly: []string{}}
	for _, e := range exported {
		pkg, id := e.pkg, e.pkg+"."+e.name
		users := idents[id]
		if _, method, ok := strings.Cut(e.name, "."); ok {
			if stdMethods[method] {
				continue
			}
			users = selected[method]
		}
		own, live := false, false
		var testers []string
		for u := range users {
			switch {
			case !u.test && u.pkg != pkg:
				live = true
			case !u.test:
				own = true
			case u.pkg != pkg:
				testers = append(testers, u.pkg)
			}
		}
		switch {
		case live:
		case own:
			c.InternalOnly++
		case testers != nil:
			sort.Strings(testers)
			c.TestOnly = append(c.TestOnly, id+" ["+strings.Join(testers, " ")+"]")
		default:
			c.Dead = append(c.Dead, id)
		}
	}
	sort.Strings(c.Dead)
	sort.Strings(c.TestOnly)
	sort.Strings(edges)
	return c, edges, nil
}

// exports lists the exported package-level identifiers and methods one
// file declares, as "Name" and "Type.Method".
func exports(f *ast.File) []string {
	var ids []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil {
				name = recvType(d.Recv.List[0].Type) + "." + name
			}
			ids = append(ids, name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						ids = append(ids, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							ids = append(ids, id.Name)
						}
					}
				}
			}
		}
	}
	return ids
}

// recvType names a method receiver's type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name
}

// printCensus prints, when both points carry a census, the entries that
// moved between them: dead and test-only identifiers, the internal-only
// count and the import edges. Nothing gates on them.
func printCensus(w io.Writer, base, head *Baseline) {
	if base.Census == nil || head.Census == nil {
		return
	}
	fmt.Fprintln(w, "census: exported internal identifiers and import edges (not gated)")
	list := func(label string, b, h []string) {
		for _, e := range diffSorted(h, b) {
			fmt.Fprintf(w, "   - %-10s %s\n", label, e)
		}
		for _, e := range diffSorted(b, h) {
			fmt.Fprintf(w, "   + %-10s %s\n", label, e)
		}
	}
	list("dead", base.Census.Dead, head.Census.Dead)
	list("test_only", base.Census.TestOnly, head.Census.TestOnly)
	list("edge", base.Edges, head.Edges)
	for _, n := range []struct {
		label string
		b, h  int
	}{
		{"dead", len(base.Census.Dead), len(head.Census.Dead)},
		{"test_only", len(base.Census.TestOnly), len(head.Census.TestOnly)},
		{"internal", base.Census.InternalOnly, head.Census.InternalOnly},
		{"edges", len(base.Edges), len(head.Edges)},
	} {
		fmt.Fprintf(w, "   %-12s %6d -> %6d  (%+d)\n", n.label, n.b, n.h, n.h-n.b)
	}
}

// diffSorted returns the entries of b that a lacks, in b's order.
func diffSorted(a, b []string) []string {
	in := map[string]bool{}
	for _, e := range a {
		in[e] = true
	}
	var out []string
	for _, e := range b {
		if !in[e] {
			out = append(out, e)
		}
	}
	return out
}
