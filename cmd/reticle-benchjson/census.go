package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Census sorts the exported identifiers of the module's internal packages
// by who refers to them (see takeCensus). compare fails on a dead entry
// its base lacks; nothing else here gates.
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

// user is one package referring to an identifier, from its tests or not.
type user struct {
	pkg  string
	test bool
}

// listPkg is the part of a `go list -json` record the census reads.
type listPkg struct {
	ImportPath, ForTest, Export string
	Dir                         string
	Module                      *struct{ Path string }
	ImportMap                   map[string]string
	Imports                     []string
	GoFiles, TestGoFiles        []string
}

// goList lists the packages of the module rooted at dir, their test
// variants and everything they import, each with the export data the
// compiler wrote for it.
func goList(dir string) ([]*listPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-test", "-export",
		"-json=ImportPath,ForTest,Export,Dir,Module,ImportMap,Imports,GoFiles,TestGoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// sources picks what the census type-checks of module mod: each package's
// test variant where it has one (its files and its in-package tests
// together), else the package itself, and its external test package.
func sources(pkgs []*listPkg, mod string) []*listPkg {
	variant := func(p *listPkg) string { return " [" + p.ForTest + ".test]" }
	tested := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest != "" && p.ImportPath == p.ForTest+variant(p) {
			tested[p.ForTest] = true
		}
	}
	var out []*listPkg
	for _, p := range pkgs {
		switch {
		case p.Module == nil || p.Module.Path != mod:
		case p.ForTest == "":
			if !tested[p.ImportPath] && !strings.HasSuffix(p.ImportPath, ".test") {
				out = append(out, p)
			}
		case p.ImportPath == p.ForTest+variant(p) || p.ImportPath == p.ForTest+"_test"+variant(p):
			out = append(out, p)
		}
	}
	return out
}

// census accumulates what every type-checked package refers to and can
// see.
type census struct {
	fset *token.FileSet
	// refs maps "path.Name" and "path.Type.Method" to the users that name
	// or select it.
	refs map[string]map[user]bool
	// ifaces indexes every interface seen, as its sorted methodSig strings,
	// under each of them; known holds them joined, and scanned the
	// packages of the import graph already read for theirs.
	ifaces  map[string][][]string
	known   map[string]bool
	scanned map[string]bool
	// methods holds the method set of a pointer to each type the internal
	// packages declare.
	methods [][]method
}

// method is one member of a method set: its census key and methodSig.
type method struct{ key, sig string }

// takeCensus reads the module rooted at dir and, listed apart because it
// is a module of its own, the benchmark module at dir/benchmark. It
// returns the census of the root module's internal packages and the root
// module's non-test import edges between its own packages, each
// "from -> to", sorted.
//
// Every package and its tests are type-checked from source against the
// export data `go list -export` wrote for their imports. An identifier is
// referenced where the type checker resolves a name or a selector to it.
// A method is also referenced when its type satisfies an interface that
// declares it, an interface from anywhere in the import graph: that is
// how the standard library calls String, Error or flag.Value's Set.
// Methods of generic types count only through selectors.
func takeCensus(dir string) (*Census, []string, error) {
	mod, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	c := &census{
		fset:    token.NewFileSet(),
		refs:    map[string]map[user]bool{},
		ifaces:  map[string][][]string{},
		known:   map[string]bool{},
		scanned: map[string]bool{},
	}
	c.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	type export struct{ pkg, name string } // name is "Name" or "Type.Method"
	var exported []export
	var edges []string
	roots := []string{dir}
	if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
		roots = append(roots, filepath.Join(dir, "benchmark"))
	}
	for _, root := range roots {
		rootMod, err := modulePath(filepath.Join(root, "go.mod"))
		if err != nil {
			return nil, nil, err
		}
		pkgs, err := goList(root)
		if err != nil {
			return nil, nil, err
		}
		byID := map[string]*listPkg{}
		for _, p := range pkgs {
			byID[p.ImportPath] = p
			if root == dir && p.ForTest == "" && p.Module != nil && p.Module.Path == mod && !strings.HasSuffix(p.ImportPath, ".test") {
				for _, imp := range p.Imports {
					if imp == mod || strings.HasPrefix(imp, mod+"/") {
						edges = append(edges, p.ImportPath+" -> "+imp)
					}
				}
			}
		}
		for _, p := range pkgs {
			if p.ForTest != "" || p.Module != nil && p.Module.Path == rootMod || c.scanned[p.ImportPath] {
				continue
			}
			c.scanned[p.ImportPath] = true
			if _, _, _, err := c.typeCheck(p, p.ImportPath, byID, true); err != nil {
				return nil, nil, err
			}
		}
		for _, p := range sources(pkgs, rootMod) {
			path, _, _ := strings.Cut(p.ImportPath, " ")
			c.scanned[path] = true // the benchmark module imports the root's
			internal := root == dir && strings.HasPrefix(path, mod+"/internal/")
			names, err := c.check(p, path, byID, internal)
			if err != nil {
				return nil, nil, err
			}
			for _, name := range names {
				exported = append(exported, export{path, name})
			}
		}
	}

	live := c.satisfied()
	out := &Census{Dead: []string{}, TestOnly: []string{}}
	for _, e := range exported {
		pkg, id := e.pkg, e.pkg+"."+e.name
		if live[id] {
			continue
		}
		own, used := false, false
		var testers []string
		for u := range c.refs[id] {
			switch {
			case !u.test && u.pkg != pkg:
				used = true
			case !u.test:
				own = true
			case u.pkg != pkg:
				testers = append(testers, u.pkg)
			}
		}
		switch {
		case used:
		case own:
			out.InternalOnly++
		case testers != nil:
			sort.Strings(testers)
			out.TestOnly = append(out.TestOnly, id+" ["+strings.Join(testers, " ")+"]")
		default:
			out.Dead = append(out.Dead, id)
		}
	}
	sort.Strings(out.Dead)
	sort.Strings(out.TestOnly)
	sort.Strings(edges)
	return out, edges, nil
}

// typeCheck parses a listed package's files and type-checks them as
// path, its imports read from the export data of the packages its import
// map names, and adds every interface the package declares or spells out
// to the index. A package outside the module is only read for those, so
// its type errors (a cgo file left out, say) are let pass.
func (c *census) typeCheck(p *listPkg, path string, byID map[string]*listPkg, lenient bool) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	conf := &types.Config{Importer: importer.ForCompiler(c.fset, "gc", exportData(byID, p.ImportMap))}
	if lenient {
		conf.Error = func(error) {}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil && !lenient {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
	}
	// Type expressions are recorded too, so this covers declared and
	// literal interfaces alike.
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			c.addIface(it)
		}
	}
	return files, pkg, info, nil
}

// check type-checks one package of the module as path and records every
// reference its files make and, for an internal package, the method sets
// of the types its non-test files declare. It returns the exported names
// those non-test files declare.
func (c *census) check(p *listPkg, path string, byID map[string]*listPkg, internal bool) ([]string, error) {
	files, pkg, info, err := c.typeCheck(p, path, byID, false)
	if err != nil {
		return nil, err
	}
	// An external test package is all tests; a test variant names its
	// test files.
	xtest := p.ForTest != "" && path != p.ForTest
	inTest := map[*token.File]bool{}
	for i, f := range files {
		inTest[c.fset.File(f.Pos())] = xtest || slices.Contains(p.TestGoFiles, p.GoFiles[i])
	}

	by := p.ForTest
	if by == "" {
		by = p.ImportPath
	}
	for id, obj := range info.Uses {
		if k := objKey(obj); k != "" {
			if c.refs[k] == nil {
				c.refs[k] = map[user]bool{}
			}
			c.refs[k][user{by, inTest[c.fset.File(id.Pos())]}] = true
		}
	}
	if !internal {
		return nil, nil
	}
	var names []string
	for _, f := range files {
		if !inTest[c.fset.File(f.Pos())] {
			names = append(names, exports(f)...)
		}
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || inTest[c.fset.File(tn.Pos())] {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		set := make([]method, ms.Len())
		for i := range set {
			fn := ms.At(i).Obj().(*types.Func)
			set[i] = method{objKey(fn), methodSig(fn)}
		}
		c.methods = append(c.methods, set)
	}
	return names, nil
}

// exportData opens the export data go list reported for an import path,
// as the import map of the importing package resolves it.
func exportData(byID map[string]*listPkg, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if id, ok := importMap[path]; ok {
			path = id
		}
		if p := byID[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}
}

// addIface indexes an interface that declares methods and no type terms.
func (c *census) addIface(it *types.Interface) {
	if it.NumMethods() == 0 || !it.IsMethodSet() {
		return
	}
	sigs := make([]string, it.NumMethods())
	for i := range sigs {
		sigs[i] = methodSig(it.Method(i))
	}
	sort.Strings(sigs)
	if id := strings.Join(sigs, "\n"); !c.known[id] {
		c.known[id] = true
		for _, sig := range sigs {
			c.ifaces[sig] = append(c.ifaces[sig], sigs)
		}
	}
}

// satisfied returns the keys of the methods an indexed interface declares
// whose type (a pointer to it, which errs on keeping) satisfies it.
// Signatures compare as strings because each package was checked in its
// own universe of imports, where the same named type is a different
// object.
func (c *census) satisfied() map[string]bool {
	live := map[string]bool{}
	for _, set := range c.methods {
		has := map[string]bool{}
		for _, m := range set {
			has[m.sig] = true
		}
		for _, m := range set {
		ifaces:
			for _, sigs := range c.ifaces[m.sig] {
				for _, sig := range sigs {
					if !has[sig] {
						continue ifaces
					}
				}
				live[m.key] = true
				break
			}
		}
	}
	return live
}

// objKey names a package-level object "path.Name" and a method of a named
// type "path.Type.Method"; anything else (locals, fields, methods of
// interface literals, the universe) is "".
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				tn := named.Origin().Obj()
				return tn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// methodSig renders a method's name and signature with every package
// named by its path and no parameter names, so the same method prints
// the same from any package's view. An unexported name carries its
// package: only that package's types can match it.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	bare := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	name := fn.Name()
	if !fn.Exported() {
		name = fn.Pkg().Path() + "." + name
	}
	plain := types.NewSignatureType(nil, nil, nil, bare(sig.Params()), bare(sig.Results()), sig.Variadic())
	return name + " " + types.TypeString(plain, func(p *types.Package) string { return p.Path() })
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
// count and the import edges. It returns the dead exports head has and
// base lacks, the one move that fails the compare.
func printCensus(w io.Writer, base, head *Baseline) (newDead []string) {
	if base.Census == nil || head.Census == nil {
		return nil
	}
	fmt.Fprintln(w, "census: exported internal identifiers and import edges (a new dead export fails)")
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
	return diffSorted(base.Census.Dead, head.Census.Dead)
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
