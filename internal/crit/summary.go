package crit

import (
	"go/ast"
	"go/token"
	"sort"
)

// The exported taint lattice. The fixpoint of dataflow.go classifies every
// tracked variable; this file exports what the whole-program soundness
// composition (internal/soundness) needs beyond the per-filter control
// fraction:
//
//   - CriticalPaths: the pop-source -> control-sink chains proving that
//     this filter derives control state from stream data (the flows a bit
//     flip in transit can desequence);
//   - Escapes: tainted values that leave the firing's analysis horizon —
//     stored into receiver fields or package-level variables, or captured
//     by nested closures — so the intraprocedural fixpoint cannot prove
//     where they end up;
//   - Opaque: tainted values routed through calls the fixpoint cannot
//     follow (reflection, calls through function values).

// EscapeKind classifies where a tainted value leaves the analysis horizon.
type EscapeKind int

const (
	// EscapeField marks a store into a receiver field: the taint survives
	// the firing inside the filter's struct state.
	EscapeField EscapeKind = iota
	// EscapeGlobal marks a store into a package-level variable.
	EscapeGlobal
	// EscapeClosure marks capture by a nested function literal.
	EscapeClosure
)

func (k EscapeKind) String() string {
	switch k {
	case EscapeField:
		return "field"
	case EscapeGlobal:
		return "global"
	case EscapeClosure:
		return "closure"
	}
	return "unknown"
}

// Escape is one tainted value leaving the firing's analysis horizon.
type Escape struct {
	Pos token.Position `json:"pos"`
	// Var is the tainted value that escapes ("popped data" when the source
	// expression feeds the sink directly).
	Var string `json:"var"`
	// Sink is where it lands (the field, global or closure site).
	Sink     string     `json:"sink"`
	Kind     EscapeKind `json:"-"`
	KindName string     `json:"kind"`
}

// OpaqueCall is one tainted value routed through a call the fixpoint
// cannot follow.
type OpaqueCall struct {
	Pos    token.Position `json:"pos"`
	Callee string         `json:"callee"`
	// Var is the tainted argument ("popped data" for direct sources).
	Var string `json:"var"`
	// Reason says why the call is opaque ("reflection", "function value").
	Reason string `json:"reason"`
}

// TaintPath is one proven pop-source -> control-sink chain.
type TaintPath struct {
	// Pos anchors the sink variable's first occurrence.
	Pos token.Position `json:"pos"`
	// Sink is the control-critical variable the taint reaches.
	Sink string `json:"sink"`
	// Vars is the variable chain, taint source first, sink last.
	Vars []string `json:"vars"`
}

// String renders "a -> b -> c".
func (p TaintPath) String() string {
	out := ""
	for i, v := range p.Vars {
		if i > 0 {
			out += " -> "
		}
		out += v
	}
	return out
}

// findEscapes records tainted values leaving the analysis horizon. It runs
// after the fixpoint, so taintedness of every variable is final.
func (fa *funcAnalyzer) findEscapes(body *ast.BlockStmt, fm *FilterMap) {
	report := func(pos token.Pos, kind EscapeKind, v, sink string) {
		fm.Escapes = append(fm.Escapes, Escape{
			Pos:      fa.file.fset.Position(pos),
			Var:      v,
			Sink:     sink,
			Kind:     kind,
			KindName: kind.String(),
		})
	}
	// taintedSource names the first tainted value an expression reads, or
	// "popped data" for a direct source; "" when the expression is clean.
	taintedSource := func(e ast.Expr) string {
		for _, d := range fa.exprDeps(e) {
			if st := fa.vars[d]; st != nil && st.tainted {
				return d
			}
		}
		if fa.containsTaintSource(e) {
			return "popped data"
		}
		return ""
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				rhs := node.Rhs[0]
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				}
				src := taintedSource(rhs)
				if src == "" {
					continue
				}
				switch target := lhs.(type) {
				case *ast.Ident:
					if node.Tok != token.DEFINE && target.Name != "_" &&
						!fa.locals[target.Name] &&
						!fa.file.imports[target.Name] {
						report(lhs.Pos(), EscapeGlobal, src, target.Name)
					}
				default:
					k := fa.key(lhs)
					if fa.recvName != "" && k != "" && len(k) > len(fa.recvName) &&
						k[:len(fa.recvName)+1] == fa.recvName+"." {
						report(lhs.Pos(), EscapeField, src, k)
					}
				}
			}
		case *ast.FuncLit:
			// Tainted enclosing-scope variables referenced inside the
			// closure escape the firing's straight-line analysis. Variables
			// re-declared inside the literal shadow the outer one; the
			// approximation here skips shadow tracking and only widens
			// toward uncertain.
			captured := map[string]bool{}
			ast.Inspect(node.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok || captured[id.Name] {
					return true
				}
				if st := fa.vars[id.Name]; st != nil && st.tainted {
					captured[id.Name] = true
				}
				return true
			})
			names := make([]string, 0, len(captured))
			for name := range captured {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				report(node.Pos(), EscapeClosure, name, "closure")
			}
			return false
		}
		return true
	})
}

// findOpaque records tainted values routed through calls the fixpoint
// cannot follow: reflection, and calls through function values.
func (fa *funcAnalyzer) findOpaque(body *ast.BlockStmt, fm *FilterMap) {
	report := func(pos token.Pos, callee, v, reason string) {
		fm.Opaque = append(fm.Opaque, OpaqueCall{
			Pos:    fa.file.fset.Position(pos),
			Callee: callee,
			Var:    v,
			Reason: reason,
		})
	}
	taintedArg := func(c *ast.CallExpr) string {
		for _, arg := range c.Args {
			for _, d := range fa.exprDeps(arg) {
				if st := fa.vars[d]; st != nil && st.tainted {
					return d
				}
			}
			if fa.containsTaintSource(arg) {
				return "popped data"
			}
		}
		return ""
	}
	ast.Inspect(body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := c.Fun.(type) {
		case *ast.SelectorExpr:
			id, ok := fun.X.(*ast.Ident)
			if !ok || id.Name != "reflect" || !fa.file.imports["reflect"] {
				return true
			}
			if v := taintedArg(c); v != "" {
				report(c.Pos(), "reflect."+fun.Sel.Name, v, "reflection")
			}
		case *ast.Ident:
			// A call through a function value held in a tracked local or
			// parameter: the target is a runtime value the static fixpoint
			// cannot resolve.
			if fa.vars[fun.Name] == nil {
				return true
			}
			if v := taintedArg(c); v != "" {
				report(c.Pos(), fun.Name, v, "function value")
			}
		}
		return true
	})
}

// criticalPaths reconstructs, for every control-critical pop-tainted
// unguarded variable, the dependency chain back to a direct taint source.
func (fa *funcAnalyzer) criticalPaths(fm *FilterMap) {
	names := make([]string, 0, len(fa.vars))
	for name := range fa.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := fa.vars[name]
		if !st.control || !st.tainted || st.guarded {
			continue
		}
		path := fa.pathToSource(name)
		if path == nil {
			continue
		}
		fm.CriticalPaths = append(fm.CriticalPaths, TaintPath{
			Pos:  fa.file.fset.Position(st.pos),
			Sink: name,
			Vars: path,
		})
	}
}

// pathToSource walks the dependency graph from sink back to a direct taint
// source, following only tainted deps, and returns the chain source-first.
// Deterministic: deps are visited in sorted order.
func (fa *funcAnalyzer) pathToSource(sink string) []string {
	type frame struct {
		name string
		prev int
	}
	frames := []frame{{name: sink, prev: -1}}
	seen := map[string]bool{sink: true}
	for i := 0; i < len(frames); i++ {
		st := fa.vars[frames[i].name]
		if st == nil {
			continue
		}
		if st.directSource {
			var path []string
			for j := i; j >= 0; j = frames[j].prev {
				path = append(path, frames[j].name)
			}
			return path
		}
		deps := make([]string, 0, len(st.deps))
		for d := range st.deps {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			ds := fa.vars[d]
			if seen[d] || ds == nil || !ds.tainted {
				continue
			}
			seen[d] = true
			frames = append(frames, frame{name: d, prev: i})
		}
	}
	return nil
}
