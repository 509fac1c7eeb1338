// Command reach reports what no binary in the repository can reach: every
// non-test function outside bench/ that is not reachable from a func main
// (cmd/*, bench/), an init or a package-level initialiser, every
// package-level type, constant and variable that reachable code never names,
// and every struct field declared outside bench/ that reachable code never
// writes, or writes and never reads.
//
// The analysis is rapid type analysis over the standard library's type
// checker: a function is reached when reached code names it; a method is also
// reached when reached code calls an interface method that a type reached code
// mentions implements with it, or when such a type satisfies a standard
// library interface (the library calls those itself). Reached code writes a
// field when it keys it in a composite literal, uses an unkeyed literal of its
// struct, assigns to it (=, op=, ++, --, or an index of it on the left), takes
// its address (&x.F, x.arr[:], or the implicit address of a pointer-receiver
// call such as x.mu.Lock()). A default is not a write: "if x.F <= 0 { x.F =
// c }", or the same with == 0, c a constant, only fills in a zero value no
// reached code set.
//
// Reached code reads a field when it selects it anywhere but as the target
// of a plain assignment (= or a range clause's =) or of a default, or
// selects through it as an embedded field. It reads every field of a struct
// type it compares with == or !=, uses as a map key, or hands to a
// parameter or conversion of interface type, where reflection (fmt,
// encoding/json) can read them.
//
// keep.txt lists what stays although unreachable or unwritten, one per line
// as "pkg.Recv.Name — TestName, what the test uses it for" (a field is
// "pkg.Type.Field"). The exit status is 1 when something is not listed, and
// when an entry is stale: the name is reachable, written or read again, or
// gone, or the test it cites does not exist or does not reach it. A cited
// test reaches a name when the same walk, started at the test with its
// package compiled together with its _test.go files as go test builds it,
// names it; for an unwritten field, when that walk writes it, and for an
// unread one, when it reads it.
//
// Usage, from this directory: go run . [-root ../..] [-keep keep.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

type pkg struct {
	path   string
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

	testFiles map[string][]*ast.File // _test.go files by directory
	worlds    map[string]*world      // by directory
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
	p := &pkg{path: path, report: !strings.HasPrefix(path, l.module+"/bench")}
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
	l.pkgs[path] = p
	l.check(p, l)
	return p.types, nil
}

// check type-checks p's files, resolving its imports through imp.
func (l *loader) check(p *pkg, imp types.Importer) {
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{Importer: imp, Error: func(err error) { l.errs = append(l.errs, err) }}
	p.types, _ = cfg.Check(p.path, l.fset, p.files, p.info)
}

// world is the program the tests of one directory see, as go test builds
// it: the package there type-checked together with its internal _test.go
// files, its external test package, and every package of the module the
// external tests import that imports the package under test, recompiled
// against it.
type world struct {
	l     *loader
	under string          // import path of the package under test
	pkgs  map[string]*pkg // this world's own type-checks, by import path
	deps  map[string]bool // whether a package imports under, directly or not
}

func (w *world) Import(path string) (*types.Package, error) {
	if p, ok := w.pkgs[path]; ok {
		return p.types, nil
	}
	base, ok := w.l.pkgs[path]
	if !ok || !w.imports(base.types) {
		return w.l.Import(path)
	}
	p := &pkg{path: path, files: base.files, report: base.report}
	w.pkgs[path] = p
	w.l.check(p, w)
	return p.types, nil
}

func (w *world) imports(t *types.Package) bool {
	if v, ok := w.deps[t.Path()]; ok {
		return v
	}
	w.deps[t.Path()] = false
	for _, imp := range t.Imports() {
		if imp.Path() == w.under || w.imports(imp) {
			w.deps[t.Path()] = true
			return true
		}
	}
	return false
}

// testWorld returns the world of dir's tests.
func (l *loader) testWorld(dir string) *world {
	if w := l.worlds[dir]; w != nil {
		return w
	}
	rel, _ := filepath.Rel(l.root, dir)
	path := filepath.ToSlash(filepath.Join(l.module, rel))
	w := &world{l: l, under: path, pkgs: map[string]*pkg{}, deps: map[string]bool{}}
	l.worlds[dir] = w
	in := &pkg{path: path}
	names := map[string]bool{}
	if base := l.pkgs[path]; base != nil {
		in.files = append(in.files, base.files...)
		names[base.types.Name()] = true
	}
	for _, f := range l.testFiles[dir] {
		names[f.Name.Name] = true
	}
	ext := &pkg{path: path + "_test"}
	for _, f := range l.testFiles[dir] {
		if name := f.Name.Name; strings.HasSuffix(name, "_test") && names[strings.TrimSuffix(name, "_test")] {
			ext.files = append(ext.files, f)
		} else {
			in.files = append(in.files, f)
		}
	}
	w.pkgs[path] = in
	l.check(in, w)
	if len(ext.files) > 0 {
		w.pkgs[ext.path] = ext
		l.check(ext, w)
	}
	return w
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
	base      map[types.Object]*decl // consulted after decls
	reached   map[types.Object]bool
	work      []*decl
	mentioned map[*types.Named]bool
	called    map[*types.Func]bool // interface methods reached code calls
	stdIfaces []*types.Interface
	written   map[*types.Var]bool // fields reached code writes, as declared
	read      map[*types.Var]bool // fields reached code reads, as declared
	whole     map[types.Type]bool // types whose fields readWhole has marked
}

func newAnalysis(stdIfaces []*types.Interface) *analysis {
	return &analysis{decls: map[types.Object]*decl{}, reached: map[types.Object]bool{},
		mentioned: map[*types.Named]bool{}, called: map[*types.Func]bool{}, stdIfaces: stdIfaces,
		written: map[*types.Var]bool{}, read: map[*types.Var]bool{}, whole: map[types.Type]bool{}}
}

func (a *analysis) reach(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	d := a.decls[obj]
	if d == nil {
		d = a.base[obj]
	}
	if d != nil && !a.reached[obj] {
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

// walk reaches everything the syntax under n names, and records the fields
// it writes and reads.
func (a *analysis) walk(n ast.Node, info *types.Info) {
	var defaults []*ast.AssignStmt // met at their if, before its body
	targets := map[ast.Expr]bool{} // selections that are written, not read
	target := func(e ast.Expr) {
		if e != nil {
			targets[ast.Unparen(e)] = true
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if d := defaulting(n, info); d != nil {
				defaults = append(defaults, d)
				target(n.Cond.(*ast.BinaryExpr).X)
				target(d.Lhs[0])
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
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
		case *ast.CompositeLit:
			st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					a.write(st.Field(i))
				}
				break
			}
			for _, e := range n.Elts {
				if v, ok := info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
					a.write(v)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && !slices.Contains(defaults, n) {
				for _, lhs := range n.Lhs {
					a.assign(lhs, info)
					if n.Tok == token.ASSIGN {
						target(lhs)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				a.assign(n.Key, info)
				a.assign(n.Value, info)
				target(n.Key)
				target(n.Value)
			}
		case *ast.BinaryExpr:
			// x == nil reads whether x points anywhere, not what it points at.
			if (n.Op == token.EQL || n.Op == token.NEQ) && !isNil(n.X, info) && !isNil(n.Y, info) {
				a.readWhole(info.TypeOf(n.X))
			}
		case *ast.IndexExpr:
			if m, ok := typeUnder(info.TypeOf(n.X)).(*types.Map); ok {
				a.readWhole(m.Key())
			}
		case *ast.CallExpr:
			a.readPassed(n, info)
		case *ast.IncDecStmt:
			a.assign(n.X, info)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				a.assign(n.X, info)
			}
		case *ast.SliceExpr:
			// Slicing an array takes its address.
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Array); ok {
				a.assign(n.X, info)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				break
			}
			a.readEmbedded(sel)
			if sel.Kind() == types.FieldVal && !targets[n] {
				a.read[sel.Obj().(*types.Var).Origin()] = true
			}
			// A pointer-receiver method of an addressable operand takes the
			// operand's address, and that of every embedded field on the
			// way to the method.
			if sel.Kind() != types.MethodVal {
				break
			}
			if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				a.embedded(sel)
				if _, isPtr := info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
					a.assign(n.X, info)
				}
			}
		}
		return true
	})
}

// defaulting returns the assignment of "if x.F <= 0 { x.F = c }" (or ==
// 0), c a constant: the statement that sets a field's default.
func defaulting(n *ast.IfStmt, info *types.Info) *ast.AssignStmt {
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || n.Init != nil || n.Else != nil || len(n.Body.List) != 1 ||
		(cond.Op != token.LEQ && cond.Op != token.EQL) || !isZero(cond.Y, info) {
		return nil
	}
	set, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || set.Tok != token.ASSIGN || len(set.Lhs) != 1 || info.Types[set.Rhs[0]].Value == nil {
		return nil
	}
	field, ok := cond.X.(*ast.SelectorExpr)
	if !ok || info.Selections[field] == nil || info.Selections[field].Kind() != types.FieldVal ||
		types.ExprString(field) != types.ExprString(set.Lhs[0]) {
		return nil
	}
	return set
}

func isZero(e ast.Expr, info *types.Info) bool {
	v := info.Types[e].Value
	return v != nil && (v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0
}

func isNil(e ast.Expr, info *types.Info) bool { return info.Types[e].IsNil() }

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func (a *analysis) write(v *types.Var) { a.written[v.Origin()] = true }

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// readEmbedded records the embedded fields a selection passes through as
// read.
func (a *analysis) readEmbedded(sel *types.Selection) {
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return
		}
		a.read[st.Field(i).Origin()] = true
		t = st.Field(i).Type()
	}
}

// readPassed reads whole every argument a call hands to a parameter of
// interface type, and the operand of a conversion to one.
func (a *analysis) readPassed(call *ast.CallExpr, info *types.Info) {
	fun := info.Types[call.Fun]
	if fun.IsType() {
		if types.IsInterface(fun.Type) && len(call.Args) == 1 {
			a.readWhole(info.TypeOf(call.Args[0]))
		}
		return
	}
	sig, ok := typeUnder(fun.Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var p types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			p = params.At(params.Len() - 1).Type()
			if !call.Ellipsis.IsValid() {
				p = p.(*types.Slice).Elem()
			}
		case i < params.Len():
			p = params.At(i).Type()
		}
		if p != nil && types.IsInterface(p) {
			a.readWhole(info.TypeOf(arg))
		}
	}
}

// readWhole records every field of every struct type inside t as read.
func (a *analysis) readWhole(t types.Type) {
	if t == nil || a.whole[t] {
		return
	}
	a.whole[t] = true
	switch t := t.(type) {
	case *types.Named:
		a.readWhole(t.Origin().Underlying())
	case *types.Alias:
		a.readWhole(types.Unalias(t))
	case *types.Pointer:
		a.readWhole(t.Elem())
	case *types.Slice:
		a.readWhole(t.Elem())
	case *types.Array:
		a.readWhole(t.Elem())
	case *types.Map:
		a.readWhole(t.Key())
		a.readWhole(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			a.read[t.Field(i).Origin()] = true
			a.readWhole(t.Field(i).Type())
		}
	}
}

// assign records the fields the addressable expression e names as written:
// a field selection, its operand's fields, and what an index or a slice
// operates on.
func (a *analysis) assign(e ast.Expr, info *types.Info) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			a.embedded(sel)
			a.write(sel.Obj().(*types.Var))
			e = x.X
		default:
			return
		}
	}
}

// embedded records the embedded fields a selection passes through as
// written.
func (a *analysis) embedded(sel *types.Selection) {
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return
		}
		a.write(st.Field(i))
		t = st.Field(i).Type()
	}
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

// run walks the work list and dispatches until nothing new is reached.
func (a *analysis) run() {
	for {
		for len(a.work) > 0 {
			d := a.work[len(a.work)-1]
			a.work = a.work[:len(a.work)-1]
			a.walk(d.node, d.info)
		}
		if !a.dispatch() {
			return
		}
	}
}

func main() {
	root := flag.String("root", "../..", "repository root (holds go.mod)")
	keepPath := flag.String("keep", "keep.txt", "list of unreachable names that stay")
	flag.Parse()
	if err := run(*root, *keepPath, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

// finding is something unreachable or unwritten that keep.txt may list.
type finding struct {
	key   string
	obj   types.Object
	owner types.Object // a field's struct type
	pos   token.Position
	what  string // "N" lines of a declaration, "field" (unwritten) or "unread"
}

func run(root, keepPath string, out, log io.Writer) error {
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
		std: importer.ForCompiler(fset, "source", nil), testFiles: map[string][]*ast.File{},
		worlds: map[string]*world{}}

	// Load every package directory except this tool's own module; parse the
	// test files, whose functions keep.txt may cite, on the way.
	tests := map[string][]string{} // directories with a _test.go function of the name
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
		if ok, _ := build.Default.MatchFile(filepath.Dir(path), name); ok && strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			l.testFiles[dir] = append(l.testFiles[dir], f)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = append(tests[fd.Name.Name], dir)
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

	var stdIfaces []*types.Interface
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
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
						stdIfaces = append(stdIfaces, tn.Type().Underlying().(*types.Interface))
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
	a := newAnalysis(stdIfaces)
	for _, p := range l.pkgs {
		for _, spec := range a.declare(fset, p) {
			if linked[p.types] {
				a.work = append(a.work, &decl{node: spec, info: p.info})
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && linked[p.types] && fd.Recv == nil &&
					(fd.Name.Name == "init" || fd.Name.Name == "main" && p.types.Name() == "main") {
					a.reach(p.info.Defs[fd.Name])
				}
			}
		}
	}
	a.run()

	keep, err := readKeep(keepPath)
	if err != nil {
		return err
	}
	// The fields no reached code writes, or writes and never reads, unless
	// their type is unreachable (reported itself), and the unreachable
	// declarations.
	var dead []finding
	unread := 0
	for _, p := range l.pkgs {
		if !p.report {
			continue
		}
		for _, f := range structFields(fset, p) {
			v := f.obj.(*types.Var)
			if _, declared := a.decls[f.owner]; !a.reached[f.owner] && declared {
				continue
			}
			switch {
			case !a.written[v]:
				dead = append(dead, f)
			case !a.read[v]:
				f.what = "unread"
				dead = append(dead, f)
				unread++
			}
		}
	}
	unreachable := 0
	for obj, d := range a.decls {
		if !a.reached[obj] && d.key != "" {
			dead = append(dead, finding{key: d.key, obj: obj, pos: d.pos, what: fmt.Sprint(d.lines)})
			unreachable++
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].pos.Filename != dead[j].pos.Filename {
			return dead[i].pos.Filename < dead[j].pos.Filename
		}
		return dead[i].pos.Line < dead[j].pos.Line
	})
	findings, used := 0, map[string]finding{}
	for _, d := range dead {
		if _, ok := keep[d.key]; ok {
			used[d.key] = d
			continue
		}
		findings++
		rel, _ := filepath.Rel(root, d.pos.Filename)
		fmt.Fprintf(out, "%s %s:%d %s\n", d.what, rel, d.pos.Line, d.key)
	}
	keys := make([]string, 0, len(keep))
	for key := range keep {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		test, reason, _ := strings.Cut(keep[key], ",")
		test = strings.TrimSpace(test)
		d, ok := used[key]
		switch {
		case !ok:
			fmt.Fprintf(out, "%s: %s is reachable, written or read again, or gone\n", keepPath, key)
		case len(tests[test]) == 0 || strings.TrimSpace(reason) == "":
			fmt.Fprintf(out, "%s: %s wants \"TestName, what it is used for\" with a test that exists, has %q\n", keepPath, key, keep[key])
		default:
			reaches, err := l.testReaches(a, test, tests[test], d)
			if err != nil {
				return err
			}
			if reaches {
				continue
			}
			verb := map[string]string{"field": "write", "unread": "read"}[d.what]
			if verb == "" {
				verb = "reach"
			}
			fmt.Fprintf(out, "%s: %s cites %s, which does not %s it\n", keepPath, key, test, verb)
		}
		findings++
	}
	fmt.Fprintf(log, "reach: %d packages, %d declarations, %d unreachable, %d fields unwritten, %d unread, %d of them kept\n",
		len(l.pkgs), len(a.decls), unreachable, len(dead)-unreachable-unread, unread, len(used))
	if findings > 0 {
		return fmt.Errorf("%d findings", findings)
	}
	return nil
}

// testReaches reports whether a test named test, in one of dirs, reaches
// what d found (writes an unwritten field, reads an unread one) in the world
// go test builds for it. main is the binaries' analysis, whose declarations
// the walk falls back on.
func (l *loader) testReaches(main *analysis, test string, dirs []string, d finding) (bool, error) {
	obj := d.obj
	for _, dir := range dirs {
		w := l.testWorld(dir)
		if len(l.errs) > 0 {
			return false, fmt.Errorf("type errors in the tests of %s, first: %v", dir, l.errs[0])
		}
		a := newAnalysis(main.stdIfaces)
		a.base = main.decls
		for _, p := range w.pkgs {
			a.declare(l.fset, p)
			for _, f := range p.files {
				if !strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
					continue
				}
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == test {
						a.reach(p.info.Defs[fd.Name])
					}
				}
			}
		}
		a.run()
		// The world's own type-checks declare the same syntax again, so the
		// object to look for is the one declared at obj's position.
		if fields := map[string]map[*types.Var]bool{"field": a.written, "unread": a.read}[d.what]; fields != nil {
			for f := range fields {
				if f.Pos() == obj.Pos() {
					return true, nil
				}
			}
			continue
		}
		for o := range a.reached {
			if o.Pos() == obj.Pos() {
				return true, nil
			}
		}
	}
	return false, nil
}

// declare records every top-level declaration of p as something to report
// when nothing reaches it, and returns p's package-level variable specs.
func (a *analysis) declare(fset *token.FileSet, p *pkg) []*ast.ValueSpec {
	var vars []*ast.ValueSpec
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				a.declareObj(fset, p, p.info.Defs[d.Name], d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						a.declareObj(fset, p, p.info.Defs[spec.Name], spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.Name != "_" {
								a.declareObj(fset, p, p.info.Defs[name], spec)
							}
						}
						vars = append(vars, spec)
					}
				}
			}
		}
	}
	return vars
}

func (a *analysis) declareObj(fset *token.FileSet, p *pkg, obj types.Object, n ast.Node) {
	d := &decl{node: n, info: p.info, pos: fset.Position(n.Pos())}
	d.lines = fset.Position(n.End()).Line - d.pos.Line + 1
	if p.report {
		d.key = p.types.Name() + "." + obj.Name()
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				d.key = p.types.Name() + "." + deref(recv.Type()).(*types.Named).Obj().Name() + "." + obj.Name()
			}
		}
	}
	a.decls[obj] = d
}

// structFields lists every named field of every struct type p declares,
// package-level or local, as pkg.Type.Field.
func structFields(fset *token.FileSet, p *pkg) []finding {
	var out []finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				names := field.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedName(field.Type)}
				}
				for _, name := range names {
					if obj := p.info.Defs[name]; obj != nil && name.Name != "_" {
						out = append(out, finding{key: p.types.Name() + "." + spec.Name.Name + "." + name.Name,
							obj: obj, owner: p.info.Defs[spec.Name], pos: fset.Position(name.Pos()), what: "field"})
					}
				}
			}
			return true
		})
	}
	return out
}

// embeddedName is the identifier an embedded field's type expression names
// the field by.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
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
