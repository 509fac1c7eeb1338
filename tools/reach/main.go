// Command reach reports what no binary in the repository can reach: every
// non-test function outside bench/ that is not reachable from a func main
// (cmd/*, bench/), an init or a package-level initialiser, and every
// package-level type, constant and variable that reachable code never names.
//
// The analysis is rapid type analysis over the standard library's type
// checker: a function is reached when reached code names it; a method is also
// reached when reached code calls an interface method that a type reached code
// mentions implements with it, or when such a type satisfies a standard
// library interface (the library calls those itself).
//
// keep.txt lists what stays although unreachable, one per line as
// "pkg.Recv.Name — TestName, what the test uses it for". The exit status is 1
// when something unreachable is not listed, and when an entry is stale: the
// name is reachable again or gone, or the test it cites does not exist.
//
// Usage, from this directory: go run . [-root ../..] [-keep keep.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type pkg struct {
	files  []*ast.File
	types  *types.Package
	info   *types.Info
	report bool // outside bench/: its unreachable declarations are reported
}

type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*pkg // by import path
	errs   []error
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	p := &pkg{report: !strings.HasPrefix(path, l.module+"/bench")}
	for _, name := range names {
		if ok, _ := build.Default.MatchFile(dir, filepath.Base(name)); !ok || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	l.pkgs[path] = p
	cfg := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	p.types, _ = cfg.Check(path, l.fset, p.files, p.info)
	return p.types, nil
}

// decl is one reportable declaration: a function, or a package-level type,
// constant or variable.
type decl struct {
	key   string // pkg.Recv.Name as keep.txt spells it; empty: not reported
	pos   token.Position
	lines int
	node  ast.Node    // the syntax reaching it reaches
	info  *types.Info // of the declaring package
}

type analysis struct {
	decls     map[types.Object]*decl
	reached   map[types.Object]bool
	work      []*decl
	mentioned map[*types.Named]bool
	called    map[*types.Func]bool // interface methods reached code calls
	stdIfaces []*types.Interface
}

func (a *analysis) reach(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if d := a.decls[obj]; d != nil && !a.reached[obj] {
		a.reached[obj] = true
		a.work = append(a.work, d)
	}
}

// mention records every named type inside t as one whose values reached code
// can hold.
func (a *analysis) mention(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		t = t.Origin()
		if a.mentioned[t] {
			return
		}
		a.mentioned[t] = true
		a.mention(t.Underlying())
	case *types.Alias:
		a.mention(types.Unalias(t))
	case *types.Pointer:
		a.mention(t.Elem())
	case *types.Slice:
		a.mention(t.Elem())
	case *types.Array:
		a.mention(t.Elem())
	case *types.Chan:
		a.mention(t.Elem())
	case *types.Map:
		a.mention(t.Key())
		a.mention(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			a.mention(t.Field(i).Type())
		}
	}
}

// walk reaches everything the syntax under n names.
func (a *analysis) walk(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				a.called[obj] = true
			}
			a.reach(obj)
		case *types.TypeName:
			a.reach(obj)
			a.mention(obj.Type())
		case *types.Var, *types.Const:
			a.reach(obj)
		}
		return true
	})
}

// dispatch reaches the methods that mentioned types supply for called or
// standard-library interfaces, and reports whether it reached anything new.
func (a *analysis) dispatch() bool {
	before := len(a.work)
	reachVia := func(ms *types.MethodSet, iface *types.Interface, only *types.Func) {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); only == nil || m.Name() == only.Name() {
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					a.reach(sel.Obj())
				}
			}
		}
	}
	for named := range a.mentioned {
		if types.IsInterface(named) || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for _, iface := range a.stdIfaces {
			if types.Implements(ptr, iface) {
				reachVia(ms, iface, nil)
			}
		}
		for m := range a.called {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(ptr, iface) {
				reachVia(ms, iface, m)
			}
		}
		// The errors package finds these three through unnamed interfaces.
		for _, name := range []string{"Unwrap", "Is", "As"} {
			if sel := ms.Lookup(named.Obj().Pkg(), name); sel != nil {
				a.reach(sel.Obj())
			}
		}
	}
	return len(a.work) > before
}

func main() {
	root := flag.String("root", "../..", "repository root (holds go.mod)")
	keepPath := flag.String("keep", "keep.txt", "list of unreachable names that stay")
	flag.Parse()
	if err := run(*root, *keepPath); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(root, keepPath string) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	fields := strings.Fields(string(mod))
	if len(fields) < 2 || fields[0] != "module" {
		return fmt.Errorf("%s/go.mod does not start with a module line", root)
	}
	// Pure-Go standard library: the source importer would otherwise run cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{fset: fset, root: root, module: fields[1], pkgs: map[string]*pkg{},
		std: importer.ForCompiler(fset, "source", nil)}

	// Load every package directory except this tool's own module; collect the
	// test function names keep.txt may cite on the way.
	tests := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name[0] == '.' || name == "testdata" || path == filepath.Join(root, "tools")) {
				return filepath.SkipDir
			}
			m, _ := filepath.Glob(filepath.Join(path, "*.go"))
			for _, name := range m {
				if !strings.HasSuffix(name, "_test.go") {
					rel, _ := filepath.Rel(root, path)
					_, err := l.Import(filepath.ToSlash(filepath.Join(l.module, rel)))
					return err
				}
			}
			return nil
		}
		if strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(l.errs) > 0 {
		return fmt.Errorf("type errors, first: %v", l.errs[0])
	}

	a := &analysis{decls: map[types.Object]*decl{}, reached: map[types.Object]bool{},
		mentioned: map[*types.Named]bool{}, called: map[*types.Func]bool{}}
	a.stdIfaces = append(a.stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenStd := map[*types.Package]bool{}
	var addStd func(p *types.Package)
	addStd = func(p *types.Package) {
		if seenStd[p] {
			return
		}
		seenStd[p] = true
		if _, ours := l.pkgs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
					if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
						a.stdIfaces = append(a.stdIfaces, tn.Type().Underlying().(*types.Interface))
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			addStd(imp)
		}
	}

	// Declarations, and the roots: main, init and package-level initialisers
	// of every package a binary imports.
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if _, ours := l.pkgs[p.Path()]; ours && !linked[p] {
			linked[p] = true
			for _, imp := range p.Imports() {
				link(imp)
			}
		}
	}
	for _, p := range l.pkgs {
		addStd(p.types)
		if p.types.Name() == "main" {
			link(p.types)
		}
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					a.declare(fset, p, obj, d)
					if name := d.Name.Name; linked[p.types] && d.Recv == nil &&
						(name == "init" || name == "main" && p.types.Name() == "main") {
						a.reach(obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							a.declare(fset, p, p.info.Defs[spec.Name], spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								if name.Name != "_" {
									a.declare(fset, p, p.info.Defs[name], spec)
								}
							}
							if linked[p.types] {
								a.work = append(a.work, &decl{node: spec, info: p.info})
							}
						}
					}
				}
			}
		}
	}
	for {
		for len(a.work) > 0 {
			d := a.work[len(a.work)-1]
			a.work = a.work[:len(a.work)-1]
			a.walk(d.node, d.info)
		}
		if !a.dispatch() {
			break
		}
	}

	keep, err := readKeep(keepPath)
	if err != nil {
		return err
	}
	var dead []*decl
	for obj, d := range a.decls {
		if !a.reached[obj] && d.key != "" {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].pos.Filename != dead[j].pos.Filename {
			return dead[i].pos.Filename < dead[j].pos.Filename
		}
		return dead[i].pos.Line < dead[j].pos.Line
	})
	findings, used := 0, map[string]bool{}
	for _, d := range dead {
		if _, ok := keep[d.key]; ok {
			used[d.key] = true
			continue
		}
		findings++
		rel, _ := filepath.Rel(root, d.pos.Filename)
		fmt.Printf("%d %s:%d %s\n", d.lines, rel, d.pos.Line, d.key)
	}
	keys := make([]string, 0, len(keep))
	for key := range keep {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		test, reason, _ := strings.Cut(keep[key], ",")
		switch {
		case !used[key]:
			fmt.Printf("%s: %s is reachable again, or gone\n", keepPath, key)
		case !tests[strings.TrimSpace(test)] || strings.TrimSpace(reason) == "":
			fmt.Printf("%s: %s wants \"TestName, what it is used for\" with a test that exists, has %q\n", keepPath, key, keep[key])
		default:
			continue
		}
		findings++
	}
	fmt.Fprintf(os.Stderr, "reach: %d packages, %d declarations, %d unreachable, %d of them kept\n",
		len(l.pkgs), len(a.decls), len(dead), len(used))
	if findings > 0 {
		return fmt.Errorf("%d findings", findings)
	}
	return nil
}

// declare records obj, declared by the syntax n, as something to report when
// nothing reaches it.
func (a *analysis) declare(fset *token.FileSet, p *pkg, obj types.Object, n ast.Node) {
	d := &decl{node: n, info: p.info, pos: fset.Position(n.Pos())}
	d.lines = fset.Position(n.End()).Line - d.pos.Line + 1
	if p.report {
		d.key = p.types.Name() + "." + obj.Name()
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				d.key = p.types.Name() + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
			}
		}
	}
	a.decls[obj] = d
}

// readKeep parses "name — reason" lines; blank lines and # comments are skipped.
func readKeep(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keep := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, why, _ := strings.Cut(line, " — ")
		keep[strings.TrimSpace(key)] = strings.TrimSpace(why)
	}
	return keep, sc.Err()
}
