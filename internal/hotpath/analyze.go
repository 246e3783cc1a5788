package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"commguard/internal/srcload"
)

// atom is one local purity violation inside a function body, before the
// walk attaches a call path to it.
type atom struct {
	pos  token.Pos
	code string
	msg  string
}

// callSite is one statically resolved in-module callee.
type callSite struct {
	pos token.Pos
	fn  *types.Func
}

// funcFact is the cached per-function analysis result: local violations
// plus the calls the walk descends into. Computed once per function no
// matter how many entries reach it.
type funcFact struct {
	atoms []atom
	calls []callSite
}

type analyzer struct {
	p *srcload.Program
	// lenient skips unresolvable callees instead of flagging CS023
	// (single-file mode, where missing cross-file declarations are
	// expected and honest opacity reporting would be all noise).
	lenient bool
	facts   map[*types.Func]*funcFact
	anns    map[*types.Func]funcAnn
	// decls indexes every type-checked function/method declaration by its
	// object; the facts cache is keyed off these.
	decls map[*types.Func]*ast.FuncDecl
	// okAt carries each file's //hotpath:ok directives, by filename.
	okAt map[string][]srcload.Directive
}

func newAnalyzer(p *srcload.Program, lenient bool) *analyzer {
	a := &analyzer{p: p, lenient: lenient, facts: map[*types.Func]*funcFact{}, anns: map[*types.Func]funcAnn{},
		decls: map[*types.Func]*ast.FuncDecl{}, okAt: map[string][]srcload.Directive{}}
	for _, f := range p.CheckedFiles() {
		// Doc-comment directives land in okAt too, harmlessly: no finding
		// anchors on a declaration's doc lines.
		a.okAt[p.Fset.Position(f.Pos()).Filename] = srcload.ParseDirectives(p.Fset, f, okMarker)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				a.decls[obj] = fd
				a.anns[obj] = parseFuncAnn(fd.Doc)
			}
		}
	}
	return a
}

// suppressed reports whether a //hotpath:ok directive waives the code at
// pos (srcload's placement rule: same line, line above, or file level).
func (a *analyzer) suppressed(pos token.Pos, code string) bool {
	at := a.p.Fset.Position(pos)
	for _, d := range a.okAt[at.Filename] {
		if d.Waives(code, at.Line) {
			return true
		}
	}
	return false
}

// inModule reports whether a type-checked package belongs to the program,
// so its declarations are loaded and can be descended into.
func (a *analyzer) inModule(pkg *types.Package) bool {
	return pkg != nil && a.p.InModule(pkg.Path())
}

// run discovers entries in the named directories and walks each.
func (a *analyzer) run(dirs []string) []Finding {
	var entries []*types.Func
	for _, dir := range dirs {
		files, _ := a.p.Files(dir) // parsed by the Check that preceded run
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := a.p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if a.anns[obj].entry {
					entries = append(entries, obj)
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Pos() < entries[j].Pos() })

	var out []Finding
	seen := map[string]bool{} // pos|code, across entries: first path wins
	for _, e := range entries {
		visited := map[*types.Func]bool{e: true}
		a.visit(e, []string{qualName(e)}, visited, seen, &out)
	}
	sortFindings(out)
	return out
}

// visit records fn's local atoms under the current path, then descends
// into its unvisited callees.
func (a *analyzer) visit(fn *types.Func, path []string, visited map[*types.Func]bool, seen map[string]bool, out *[]Finding) {
	fact := a.factFor(fn)
	for _, at := range fact.atoms {
		pos := a.p.Fset.Position(at.pos)
		key := pos.Filename + ":" + itoa(pos.Line) + ":" + itoa(pos.Column) + "|" + at.code
		if seen[key] {
			continue
		}
		seen[key] = true
		*out = append(*out, Finding{
			Pos:     pos,
			Code:    at.code,
			Entry:   path[0],
			Path:    append([]string(nil), path...),
			Message: at.msg,
		})
	}
	for _, c := range fact.calls {
		if visited[c.fn] {
			continue
		}
		visited[c.fn] = true
		a.visit(c.fn, append(path, qualName(c.fn)), visited, seen, out)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// factFor computes (or returns the cached) facts of one function.
func (a *analyzer) factFor(fn *types.Func) *funcFact {
	if f, ok := a.facts[fn]; ok {
		return f
	}
	fact := &funcFact{}
	a.facts[fn] = fact // before the scan: direct recursion terminates
	decl := a.decls[fn]
	if decl == nil || decl.Body == nil {
		return fact
	}
	s := &scanner{a: a, fact: fact, flagged: map[ast.Node]bool{}}
	s.block(decl.Body)
	return fact
}

// scanner walks one function body collecting atoms and call sites.
type scanner struct {
	a    *analyzer
	fact *funcFact
	// flagged marks composite literals already reported through an
	// enclosing &lit so they are not double-counted.
	flagged map[ast.Node]bool
}

func (s *scanner) add(pos token.Pos, code, msg string) {
	if s.a.suppressed(pos, code) {
		return
	}
	s.fact.atoms = append(s.fact.atoms, atom{pos, code, msg})
}

func (s *scanner) block(body *ast.BlockStmt) {
	ast.Inspect(body, s.node)
}

// node is the ast.Inspect callback; returning false prunes the subtree.
func (s *scanner) node(n ast.Node) bool {
	info := s.a.p.Info
	switch n := n.(type) {
	case *ast.SelectStmt:
		s.add(n.Pos(), CodeBlock, "select blocks on channel operations")
		return true

	case *ast.SendStmt:
		s.add(n.Arrow, CodeBlock, "channel send can block")
		return true

	case *ast.GoStmt:
		s.add(n.Pos(), CodeBlock, "goroutine spawn enters the scheduler")
		return true

	case *ast.DeferStmt:
		s.add(n.Pos(), CodeHidden, "defer allocates a frame record and hides control flow")
		return true

	case *ast.UnaryExpr:
		switch n.Op {
		case token.ARROW:
			s.add(n.Pos(), CodeBlock, "channel receive can block")
		case token.AND:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				s.flagged[lit] = true
				s.add(n.Pos(), CodeAlloc, "address of composite literal escapes to the heap")
			}
		}
		return true

	case *ast.CompositeLit:
		if s.flagged[n] {
			return true
		}
		if t := typeOf(info, n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				s.add(n.Pos(), CodeAlloc, "slice literal allocates its backing array")
			case *types.Map:
				s.add(n.Pos(), CodeAlloc, "map literal allocates")
			}
		}
		return true

	case *ast.FuncLit:
		s.add(n.Pos(), CodeAlloc, "function literal allocates a closure")
		// The literal's body runs whenever the value is invoked, which
		// the walk cannot place; the closure allocation is the finding.
		return false

	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(typeOf(info, n.X)) {
			s.add(n.OpPos, CodeAlloc, "string concatenation allocates")
		}
		return true

	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(typeOf(info, ix.X)) {
				s.add(ix.Pos(), CodeHidden, "map write can grow the table")
			}
		}
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(typeOf(info, n.Lhs[0])) {
			s.add(n.TokPos, CodeAlloc, "string concatenation allocates")
		}
		return true

	case *ast.IncDecStmt:
		if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMap(typeOf(info, ix.X)) {
			s.add(n.Pos(), CodeHidden, "map write can grow the table")
		}
		return true

	case *ast.RangeStmt:
		if t := typeOf(info, n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				s.add(n.Pos(), CodeBlock, "range over channel blocks per receive")
			}
		}
		return true

	case *ast.CallExpr:
		s.call(n)
		return true
	}
	return true
}

// call classifies one call expression: conversion, builtin, static
// function/method, or opaque.
func (s *scanner) call(call *ast.CallExpr) {
	info := s.a.p.Info
	fun := ast.Unparen(call.Fun)

	// Type conversion T(x): boxing and string<->[]byte copies allocate.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		s.conversion(call, tv.Type)
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			s.builtin(call, fun.Name)
		case *types.Func:
			s.static(call, obj, nil)
		case *types.Var:
			s.add(call.Pos(), CodeOpaque, "call through function value "+fun.Name)
		case nil:
			if !s.a.lenient {
				s.add(call.Pos(), CodeOpaque, "unresolved call to "+fun.Name)
			}
		}

	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method call through a value.
			obj, _ := sel.Obj().(*types.Func)
			if obj == nil {
				s.add(call.Pos(), CodeOpaque, "call through method value")
				return
			}
			if types.IsInterface(sel.Recv()) {
				s.add(call.Pos(), CodeOpaque, "interface method dispatch: "+sel.Recv().String()+"."+obj.Name())
				return
			}
			s.static(call, obj, sel)
			return
		}
		// Package-qualified pkg.F.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			s.static(call, obj, nil)
		case *types.Var:
			s.add(call.Pos(), CodeOpaque, "call through function value "+fun.Sel.Name)
		default:
			if !s.a.lenient {
				s.add(call.Pos(), CodeOpaque, "unresolved call to "+fun.Sel.Name)
			}
		}

	case *ast.FuncLit:
		// Immediately invoked literal: the FuncLit node case already
		// flagged the closure allocation, which is the honest finding.

	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation f[T](...) — unwrap to the identifier.
		if id := instantiatedIdent(fun); id != nil {
			if obj, ok := info.Uses[id].(*types.Func); ok {
				s.static(call, obj, nil)
				return
			}
		}
		s.add(call.Pos(), CodeOpaque, "call through indexed expression")

	default:
		s.add(call.Pos(), CodeOpaque, "call through dynamic expression")
	}
}

func instantiatedIdent(fun ast.Expr) *ast.Ident {
	var x ast.Expr
	switch fun := fun.(type) {
	case *ast.IndexExpr:
		x = fun.X
	case *ast.IndexListExpr:
		x = fun.X
	}
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// conversion judges T(x).
func (s *scanner) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argT := typeOf(s.a.p.Info, call.Args[0])
	if argT == nil {
		return
	}
	if types.IsInterface(target) && !types.IsInterface(argT) && !isNilType(argT) {
		s.add(call.Pos(), CodeAlloc, "conversion boxes "+argT.String()+" into an interface")
		return
	}
	tu, au := target.Underlying(), argT.Underlying()
	if isString(tu) && isByteOrRuneSlice(au) || isByteOrRuneSlice(tu) && isString(au) {
		s.add(call.Pos(), CodeAlloc, "string/slice conversion copies to a new allocation")
	}
}

// builtin judges a builtin call.
func (s *scanner) builtin(call *ast.CallExpr, name string) {
	switch name {
	case "append":
		s.add(call.Pos(), CodeAlloc, "append can grow the backing array")
	case "make":
		s.add(call.Pos(), CodeAlloc, "make allocates")
	case "new":
		s.add(call.Pos(), CodeAlloc, "new allocates")
	case "recover":
		s.add(call.Pos(), CodeHidden, "recover implies a deferred panic handler")
	case "delete":
		s.add(call.Pos(), CodeHidden, "map delete mutates the table")
	case "clear":
		if len(call.Args) == 1 && isMap(typeOf(s.a.p.Info, call.Args[0])) {
			s.add(call.Pos(), CodeHidden, "map clear mutates the table")
		}
	case "print", "println":
		s.add(call.Pos(), CodeBlock, name+" writes to stderr")
	}
	// len/cap/copy/min/max/real/imag/complex/panic: pure or terminal.
}

// static judges a statically resolved function or method call.
func (s *scanner) static(call *ast.CallExpr, obj *types.Func, sel *types.Selection) {
	if s.a.inModule(obj.Pkg()) {
		ann := s.a.anns[obj]
		if ann.ok && !ann.entry {
			return // sanctioned slow-path boundary: walk stops here
		}
		if decl := s.a.decls[obj]; decl != nil && decl.Body != nil {
			s.fact.calls = append(s.fact.calls, callSite{call.Pos(), obj})
			s.boxedArgs(call, obj)
			return
		}
		s.add(call.Pos(), CodeOpaque, qualName(obj)+" has no body to analyze")
		return
	}
	if obj.Pkg() == nil {
		// error.Error and friends from the universe scope.
		s.add(call.Pos(), CodeOpaque, "interface method dispatch: "+obj.Name())
		return
	}
	recv := ""
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = bareTypeName(sig.Recv().Type())
	}
	v := classifyStd(obj.Pkg().Path(), obj.Pkg().Name(), recv, obj.Name())
	if v.code != "" {
		s.add(call.Pos(), v.code, v.msg)
		return
	}
	s.boxedArgs(call, obj)
}

// boxedArgs flags concrete arguments passed to interface parameters of an
// otherwise clean call — the classic hidden allocation. Calls already
// flagged skip this to avoid pile-on.
func (s *scanner) boxedArgs(call *ast.CallExpr, obj *types.Func) {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= n-1 {
			if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < n {
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := typeOf(s.a.p.Info, arg)
		if at == nil || types.IsInterface(at) || isNilType(at) {
			continue
		}
		s.add(arg.Pos(), CodeAlloc, "argument boxed into interface parameter of "+qualName(obj))
	}
}

// --- small type helpers ---

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isNilType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// bareTypeName strips pointers and returns the named type's name.
func bareTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// qualName renders pkg.Func or pkg.Type.Method.
func qualName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = bareTypeName(sig.Recv().Type()) + "." + name
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
