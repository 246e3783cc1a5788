package crit

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// varState is the fixpoint state of one tracked variable. Variables are
// keyed by name within their function ("recv.field" for receiver fields);
// work functions are small enough that shadowing-induced merging is an
// acceptable imprecision (it only ever widens toward control-critical).
type varState struct {
	pos token.Pos
	// control: the value flows (transitively) into a control sink.
	control bool
	// tainted: the value derives (transitively) from stream data.
	tainted bool
	// directSource: assigned straight from a taint source expression.
	directSource bool
	// guarded: a bounds guard was observed on this value or on every
	// tainted value flowing into it.
	guarded bool
	// deps are the variables this one is assigned from.
	deps map[string]bool
}

// funcAnalyzer runs the dataflow over one function body.
type funcAnalyzer struct {
	file       *fileAnalyzer
	recvName   string
	dataParams map[string]bool // slice/array params: stream data
	// locals names the function's own declarations (parameters, receiver,
	// :=/var/range declarations): a plain `=` store to a name outside this
	// set writes a package-level variable (an escape, see summary.go).
	locals map[string]bool
	vars   map[string]*varState
}

// workInfo records a WorkBatch method's critical receiver fields for the
// CM003 cross-method check.
type workInfo struct {
	fm       *FilterMap
	recvType string
	fields   map[string]bool
}

// analyzeFunc classifies one function. recv is non-nil for methods.
func (a *fileAnalyzer) analyzeFunc(name string, recv *ast.FieldList, params *ast.FieldList, body *ast.BlockStmt, pos token.Pos) *FilterMap {
	fa := &funcAnalyzer{
		file:       a,
		dataParams: map[string]bool{},
		locals:     map[string]bool{},
		vars:       map[string]*varState{},
	}
	if recv != nil && len(recv.List) > 0 && len(recv.List[0].Names) > 0 {
		fa.recvName = recv.List[0].Names[0].Name
		fa.locals[fa.recvName] = true
	}
	if params != nil {
		for _, field := range params.List {
			isData := isSliceOrArray(field.Type)
			for _, n := range field.Names {
				fa.locals[n.Name] = true
				if n.Name == "_" {
					continue
				}
				fa.ensure(n.Name, n.Pos())
				if isData {
					fa.dataParams[n.Name] = true
				}
			}
		}
	}

	fa.collect(body)
	fa.fixpoint()

	p := a.fset.Position(pos)
	fm := &FilterMap{Name: name, File: p.Filename, Line: p.Line}
	fa.countStmts(body, fm)
	fa.findViolations(body, fm)
	fa.findEscapes(body, fm)
	fa.findOpaque(body, fm)
	fa.criticalPaths(fm)

	for vname, st := range fa.vars {
		fm.Vars = append(fm.Vars, Var{
			Name:       vname,
			Pos:        a.fset.Position(st.pos),
			Kind:       kindOf(st),
			KindName:   kindOf(st).String(),
			PopTainted: st.tainted,
			Guarded:    st.guarded,
		})
	}
	sort.Slice(fm.Vars, func(i, j int) bool { return fm.Vars[i].Name < fm.Vars[j].Name })
	return fm
}

func kindOf(st *varState) Kind {
	if st.control {
		return ControlCritical
	}
	return DataTolerable
}

func isSliceOrArray(t ast.Expr) bool {
	switch x := t.(type) {
	case *ast.ArrayType:
		return true
	case *ast.StarExpr:
		_, ok := x.X.(*ast.ArrayType)
		return ok
	}
	return false
}

func (fa *funcAnalyzer) ensure(name string, pos token.Pos) *varState {
	st := fa.vars[name]
	if st == nil {
		st = &varState{pos: pos, deps: map[string]bool{}}
		fa.vars[name] = st
	}
	return st
}

// key resolves an lvalue (or value-bearing base) expression to a variable
// key; "" when the expression is not trackable.
func (fa *funcAnalyzer) key(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "_" || fa.file.imports[x.Name] {
			return ""
		}
		return x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if fa.file.imports[id.Name] {
				return ""
			}
			if id.Name == fa.recvName {
				return id.Name + "." + x.Sel.Name
			}
			return id.Name // whole foreign object as one variable
		}
		return fa.key(x.X)
	case *ast.IndexExpr:
		return fa.key(x.X)
	case *ast.StarExpr:
		return fa.key(x.X)
	case *ast.ParenExpr:
		return fa.key(x.X)
	case *ast.SliceExpr:
		return fa.key(x.X)
	}
	return ""
}

// deps collects the variable keys an expression reads. Callee identifiers,
// len/cap results (structural, not stream data) and guard-call interiors
// contribute nothing.
func (fa *funcAnalyzer) exprDeps(e ast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	add := func(k string) {
		if k != "" && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	var walk func(n ast.Expr)
	walk = func(n ast.Expr) {
		switch x := n.(type) {
		case nil:
		case *ast.Ident:
			add(fa.key(x))
		case *ast.SelectorExpr:
			add(fa.key(x))
		case *ast.CallExpr:
			if isLenCap(x) {
				return // structural, breaks the taint chain
			}
			// The callee ident itself is not a variable; a method's
			// receiver object is (its state feeds the result).
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				add(fa.key(sel.X))
			}
			for _, arg := range x.Args {
				walk(arg)
			}
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.SliceExpr:
			walk(x.X)
			walk(x.Low)
			walk(x.High)
			walk(x.Max)
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				walk(el)
			}
		case *ast.KeyValueExpr:
			walk(x.Value)
		case *ast.TypeAssertExpr:
			walk(x.X)
		case *ast.FuncLit:
			// Nested closures are analyzed separately.
		}
	}
	walk(e)
	return out
}

func isLenCap(c *ast.CallExpr) bool {
	id, ok := c.Fun.(*ast.Ident)
	return ok && (id.Name == "len" || id.Name == "cap")
}

// isGuardCall reports a call to a bounds-guarding function (clamp/min/...).
func isGuardCall(c *ast.CallExpr) bool {
	return guardFnRe.MatchString(calleeName(c.Fun))
}

// containsTaintSource reports whether an expression reads stream data
// directly: an element read of a slice/array parameter. Guard-call and
// len/cap interiors are skipped.
func (fa *funcAnalyzer) containsTaintSource(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isLenCap(x) || isGuardCall(x) {
				return false
			}
		case *ast.IndexExpr:
			if fa.isDataRead(x) {
				found = true
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return found
}

// isDataRead reports whether x reads an element of a data parameter.
func (fa *funcAnalyzer) isDataRead(x *ast.IndexExpr) bool {
	id, ok := x.X.(*ast.Ident)
	return ok && fa.dataParams[id.Name]
}

// assign records one lvalue <- rvalue flow edge.
func (fa *funcAnalyzer) assign(lhs ast.Expr, rhs ast.Expr) {
	k := fa.key(lhs)
	if k == "" {
		return
	}
	st := fa.ensure(k, lhs.Pos())
	for _, d := range fa.exprDeps(rhs) {
		if d != k {
			st.deps[d] = true
		}
	}
	if fa.containsTaintSource(rhs) {
		st.directSource = true
	}
	if c, ok := unwrap(rhs).(*ast.CallExpr); ok && isGuardCall(c) {
		st.guarded = true
	}
}

func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			// Unwrap single-argument conversions/wrappers so a top-level
			// guard shows through float64(clamp(v)); stop at multi-arg.
			if len(x.Args) == 1 && !isGuardCall(x) && calleeName(x.Fun) != "" && isTypeName(calleeName(x.Fun)) {
				e = x.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}

// isTypeName recognizes the builtin conversion spellings worth unwrapping.
func isTypeName(name string) bool {
	switch name {
	case "int", "int8", "int16", "int32", "int64",
		"uint", "uint8", "uint16", "uint32", "uint64", "uintptr",
		"float32", "float64", "byte", "rune":
		return true
	}
	return false
}

// markControl raises every variable read by e to control-critical.
func (fa *funcAnalyzer) markControl(e ast.Expr) {
	for _, d := range fa.exprDeps(e) {
		fa.ensure(d, e.Pos()).control = true
	}
}

// markGuards records bounds guards: comparison operands inside a branch
// condition, and arguments of guard-named calls.
func (fa *funcAnalyzer) markGuards(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, side := range []ast.Expr{b.X, b.Y} {
				if k := fa.key(side); k != "" {
					fa.ensure(k, side.Pos()).guarded = true
				}
			}
		}
		return true
	})
}

// collect walks the body once, recording flow edges, control sinks and
// guards.
func (fa *funcAnalyzer) collect(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if node.Tok == token.DEFINE {
					if id, ok := lhs.(*ast.Ident); ok {
						fa.locals[id.Name] = true
					}
				}
				rhs := node.Rhs[0]
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				}
				fa.assign(lhs, rhs)
			}
		case *ast.DeclStmt:
			if gd, ok := node.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, id := range vs.Names {
						if id.Name == "_" {
							continue
						}
						fa.locals[id.Name] = true
						fa.ensure(id.Name, id.Pos())
						if i < len(vs.Values) {
							fa.assign(id, vs.Values[i])
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if k := fa.key(node.X); k != "" {
				fa.ensure(k, node.X.Pos())
			}
		case *ast.ForStmt:
			if node.Cond != nil {
				fa.markControl(node.Cond)
			}
		case *ast.RangeStmt:
			if id, ok := node.Key.(*ast.Ident); ok {
				fa.locals[id.Name] = true
			}
			if id, ok := node.Value.(*ast.Ident); ok {
				fa.locals[id.Name] = true
			}
			if k := fa.key(node.Key); k != "" {
				fa.ensure(k, node.Key.Pos()).control = true
			}
			if node.Value != nil {
				if k := fa.key(node.Value); k != "" {
					st := fa.ensure(k, node.Value.Pos())
					for _, d := range fa.exprDeps(node.X) {
						st.deps[d] = true
					}
					if fa.containsRangeSource(node.X) {
						st.directSource = true
					}
				}
			}
		case *ast.IfStmt:
			fa.markControl(node.Cond)
			fa.markGuards(node.Cond)
		case *ast.SwitchStmt:
			if node.Tag != nil {
				fa.markControl(node.Tag)
				fa.markGuards(node.Tag)
			}
		case *ast.CaseClause:
			for _, e := range node.List {
				fa.markControl(e)
			}
		case *ast.IndexExpr:
			fa.markControl(node.Index)
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{node.Low, node.High, node.Max} {
				if b != nil {
					fa.markControl(b)
				}
			}
		case *ast.CallExpr:
			if isGuardCall(node) {
				for _, arg := range node.Args {
					if k := fa.key(arg); k != "" {
						fa.ensure(k, arg.Pos()).guarded = true
					}
				}
			}
		case *ast.FuncLit:
			return false // analyzed separately
		}
		return true
	})
}

// containsRangeSource reports whether ranging over e yields stream data
// directly: a data parameter, or an element read of one (a kernel's
// in[0]).
func (fa *funcAnalyzer) containsRangeSource(e ast.Expr) bool {
	if id, ok := unwrap(e).(*ast.Ident); ok && fa.dataParams[id.Name] {
		return true
	}
	return fa.containsTaintSource(e)
}

// fixpoint propagates taint forward, criticality backward, and guardedness
// forward until stable.
func (fa *funcAnalyzer) fixpoint() {
	for changed, iter := true, 0; changed && iter < 1000; iter++ {
		changed = false
		for _, st := range fa.vars {
			if !st.tainted {
				if st.directSource {
					st.tainted = true
					changed = true
				} else {
					for d := range st.deps {
						if ds := fa.vars[d]; ds != nil && ds.tainted {
							st.tainted = true
							changed = true
							break
						}
					}
				}
			}
			if st.control {
				for d := range st.deps {
					if ds := fa.vars[d]; ds != nil && !ds.control {
						ds.control = true
						changed = true
					}
				}
			}
		}
	}
	// Guardedness: a derived value is guarded when every tainted input is.
	for changed, iter := true, 0; changed && iter < 1000; iter++ {
		changed = false
		for _, st := range fa.vars {
			if st.guarded || !st.tainted || st.directSource || len(st.deps) == 0 {
				continue
			}
			ok := false
			for d := range st.deps {
				ds := fa.vars[d]
				if ds == nil || !ds.tainted {
					continue
				}
				if !ds.guarded {
					ok = false
					break
				}
				ok = true
			}
			if ok {
				st.guarded = true
				changed = true
			}
		}
	}
}

// countStmts charges every statement to the lattice side its writes land
// on: control-flow statements and writes to control-critical variables are
// control; everything else is data.
func (fa *funcAnalyzer) countStmts(body *ast.BlockStmt, fm *FilterMap) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch st := s.(type) {
		case *ast.BlockStmt, *ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
			return true // containers, not charged
		case *ast.ForStmt, *ast.RangeStmt, *ast.IfStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.BranchStmt, *ast.SelectStmt:
			fm.Stmts++
			fm.ControlStmts++
		case *ast.AssignStmt:
			fm.Stmts++
			if fa.writesControl(st.Lhs...) {
				fm.ControlStmts++
			}
		case *ast.IncDecStmt:
			fm.Stmts++
			if fa.writesControl(st.X) {
				fm.ControlStmts++
			}
		case *ast.DeclStmt:
			fm.Stmts++
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							if fa.writesControl(id) {
								fm.ControlStmts++
								return true
							}
						}
					}
				}
			}
		default:
			fm.Stmts++
		}
		return true
	})
}

func (fa *funcAnalyzer) writesControl(lhs ...ast.Expr) bool {
	for _, e := range lhs {
		if k := fa.key(e); k != "" {
			if st := fa.vars[k]; st != nil && st.control {
				return true
			}
		}
	}
	return false
}

// findViolations reports the catastrophic pattern: control flow derived
// from unguarded popped data.
func (fa *funcAnalyzer) findViolations(body *ast.BlockStmt, fm *FilterMap) {
	seen := map[string]bool{}
	report := func(pos token.Pos, code, what string) {
		p := fa.file.fset.Position(pos)
		key := fmt.Sprintf("%s:%d:%d:%s", p.Filename, p.Line, p.Column, code)
		if seen[key] {
			return
		}
		seen[key] = true
		fm.Findings = append(fm.Findings, Finding{
			Pos:    p,
			Code:   code,
			Filter: fm.Name,
			Message: fmt.Sprintf("%s derives from popped data without a bounds guard; "+
				"an error in the popped value desequences communication (paper §3)", what),
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ForStmt:
			if node.Cond != nil && fa.violates(node.Cond) {
				report(node.Cond.Pos(), CodeLoopBound, "a loop bound")
			}
		case *ast.IndexExpr:
			if fa.violates(node.Index) {
				report(node.Index.Pos(), CodeIndex, "a slice/array index")
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{node.Low, node.High, node.Max} {
				if b != nil && fa.violates(b) {
					report(b.Pos(), CodeIndex, "a slice bound")
				}
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
}

// violates reports whether a control expression carries unguarded stream
// data: a direct pop/element source, or a tainted unguarded variable.
func (fa *funcAnalyzer) violates(e ast.Expr) bool {
	bad := false
	ast.Inspect(e, func(n ast.Node) bool {
		if bad {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isLenCap(x) || isGuardCall(x) {
				return false
			}
		case *ast.IndexExpr:
			if fa.isDataRead(x) {
				bad = true
				return false
			}
		case *ast.Ident:
			if st := fa.vars[x.Name]; st != nil && st.tainted && !st.guarded {
				bad = true
				return false
			}
		case *ast.SelectorExpr:
			if k := fa.key(x); k != "" {
				if st := fa.vars[k]; st != nil && st.tainted && !st.guarded {
					bad = true
				}
			}
			return false
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return bad
}

// firingPathMethod reports whether a method name belongs to the sanctioned
// firing path: Init, the kernel (stream.Filter's WorkBatch, which also
// repairs an ABFT mismatch) and stream.ABFTKernel's WorkBatchABFT.
func firingPathMethod(name string) bool {
	switch name {
	case "Init", "WorkBatch", "WorkBatchABFT":
		return true
	}
	return false
}

// checkFieldMutations implements CM003: control-critical receiver fields
// (as classified by the type's WorkBatch analysis) must only be mutated
// by the firing path (WorkBatch/Init and the ABFT variant).
func (a *fileAnalyzer) checkFieldMutations(m *ProtectionMap) {
	for _, decl := range a.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
			continue
		}
		if firingPathMethod(fn.Name.Name) {
			continue
		}
		recvType := recvTypeName(fn.Recv.List[0].Type)
		info, ok := a.works[recvType]
		if !ok || len(info.fields) == 0 {
			continue
		}
		recvName := ""
		if len(fn.Recv.List[0].Names) > 0 {
			recvName = fn.Recv.List[0].Names[0].Name
		}
		if recvName == "" {
			continue
		}
		mutated := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != recvName || !info.fields[sel.Sel.Name] {
				return
			}
			info.fm.Findings = append(info.fm.Findings, Finding{
				Pos:    a.fset.Position(sel.Pos()),
				Code:   CodeFieldMut,
				Filter: info.fm.Name,
				Message: fmt.Sprintf("control-critical field %s.%s mutated outside WorkBatch/Init (in %s); "+
					"desequencing state must stay confined to the firing path", recvType, sel.Sel.Name, fn.Name.Name),
			})
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					mutated(lhs)
				}
			case *ast.IncDecStmt:
				mutated(node.X)
			}
			return true
		})
	}
}

// recordWork stores a WorkBatch method's critical fields for
// checkFieldMutations.
func (a *fileAnalyzer) recordWork(fn *ast.FuncDecl, fm *FilterMap) {
	if fn.Name.Name != "WorkBatch" || fn.Recv == nil || len(fn.Recv.List) == 0 {
		return
	}
	recvType := recvTypeName(fn.Recv.List[0].Type)
	recvName := ""
	if len(fn.Recv.List[0].Names) > 0 {
		recvName = fn.Recv.List[0].Names[0].Name
	}
	if recvType == "" || recvName == "" {
		return
	}
	fields := map[string]bool{}
	for _, v := range fm.Vars {
		if v.Kind == ControlCritical && strings.HasPrefix(v.Name, recvName+".") {
			fields[strings.TrimPrefix(v.Name, recvName+".")] = true
		}
	}
	if a.works == nil {
		a.works = map[string]workInfo{}
	}
	a.works[recvType] = workInfo{fm: fm, recvType: recvType, fields: fields}
}
