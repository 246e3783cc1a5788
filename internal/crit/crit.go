// Package crit is a control-criticality dataflow analysis over filter
// work functions. The paper's premise (§3) is that errors striking
// *control* state — loop trip counts, queue indices, addressing, frame
// counters — are catastrophic, while errors striking *data* state merely
// degrade output quality. Until now the repo hard-coded that split in the
// fault-model weights (internal/fault); this package derives it from the
// filter implementations themselves.
//
// The analysis is intraprocedural and stdlib-only (go/parser + go/ast, the
// same no-download constraint as internal/lint): for every work function it
// propagates two taints to a fixpoint over the assignment graph:
//
//   - control-criticality, backwards from control sinks: loop bounds,
//     slice/array indices, slice bounds, branch and switch conditions,
//     range induction variables;
//   - pop-taint, forwards from stream-data sources: ctx.Pop/Peek calls in
//     filter mode, element reads of slice/array parameters in kernel mode
//     (the codec kernels receive the popped frame as a slice).
//
// Every tracked variable lands in the two-point lattice {data-tolerable,
// control-critical}; every statement is charged to the side its writes
// land on, giving a per-filter control-critical fraction that the fault
// model can consume (fault.CriticalityWeighted, sim.Config.CritFractions).
//
// The statically-detectable catastrophic pattern — a filter deriving its
// own control flow from popped *data* values — is reported as a finding:
//
//	CM001  a loop bound derives from popped data without a bounds guard
//	CM002  a slice/array index derives from popped data without a bounds
//	       guard
//	CM003  a control-critical receiver field is mutated outside Work/Init
//
// Findings are suppressible with `//repolint:ignore CM00x reason` comments
// (the directive grammar internal/lint shares). commguard-vet reports them
// as tool "critmap".
package crit

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Kind is the two-point classification lattice.
type Kind int

const (
	// DataTolerable state only flows into pushed item values: an error
	// striking it perturbs output samples (DTE-like damage).
	DataTolerable Kind = iota
	// ControlCritical state flows into a loop bound, index, branch
	// condition or frame counter: an error striking it desequences
	// communication (AE/QME-like damage).
	ControlCritical
)

func (k Kind) String() string {
	if k == ControlCritical {
		return "control-critical"
	}
	return "data-tolerable"
}

// Finding codes.
const (
	// CodeLoopBound flags a loop bound derived from popped data (CM001).
	CodeLoopBound = "CM001"
	// CodeIndex flags an index derived from popped data (CM002).
	CodeIndex = "CM002"
	// CodeFieldMut flags a control-critical field mutated outside
	// Work/Init (CM003).
	CodeFieldMut = "CM003"
)

// Var is one classified variable of a work function. Receiver fields are
// tracked as "recv.field" composite names.
type Var struct {
	Name       string         `json:"name"`
	Pos        token.Position `json:"pos"`
	Kind       Kind           `json:"-"`
	KindName   string         `json:"kind"`
	PopTainted bool           `json:"popTainted,omitempty"`
	Guarded    bool           `json:"guarded,omitempty"`
}

// Finding is one catastrophic-pattern report.
type Finding struct {
	Pos     token.Position `json:"pos"`
	Code    string         `json:"code"`
	Filter  string         `json:"filter"`
	Message string         `json:"message"`
}

// String renders the conventional "file:line:col: [CODE] filter: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Filter, f.Message)
}

// FilterMap is the protection map of one work function.
type FilterMap struct {
	// Name is the filter's display name: the NewFuncFilter name literal
	// (Sprintf formats with the verbs stripped, so "chan%d" matches
	// "chan0".."chanN"), "pkg.Type" for Work methods, or "pkg.func" for
	// ctx-taking helpers.
	Name string `json:"name"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Stmts / ControlStmts count the function's statements and the subset
	// charged control-critical.
	Stmts        int       `json:"stmts"`
	ControlStmts int       `json:"controlStmts"`
	Vars         []Var     `json:"vars,omitempty"`
	Findings     []Finding `json:"findings,omitempty"`

	// The exported taint lattice (see summary.go): what the whole-program
	// soundness composition consumes beyond the control fraction.
	//
	// CriticalPaths proves this filter derives control state from popped
	// data (source -> sink chains); Escapes lists tainted values leaving
	// the firing via fields/globals/closures; Opaque lists tainted values
	// routed through calls the fixpoint cannot follow.
	CriticalPaths []TaintPath  `json:"criticalPaths,omitempty"`
	Escapes       []Escape     `json:"escapes,omitempty"`
	Opaque        []OpaqueCall `json:"opaque,omitempty"`
}

// ConsumesCritically reports whether popped data provably reaches control
// state in this filter: a reconstructed taint path, or a direct CM001/CM002
// violation site.
func (f *FilterMap) ConsumesCritically() bool {
	if len(f.CriticalPaths) > 0 {
		return true
	}
	for _, fi := range f.Findings {
		if fi.Code == CodeLoopBound || fi.Code == CodeIndex {
			return true
		}
	}
	return false
}

// ControlFraction is the fraction of statements charged control-critical.
func (f *FilterMap) ControlFraction() float64 {
	if f.Stmts == 0 {
		return 0
	}
	return float64(f.ControlStmts) / float64(f.Stmts)
}

// CriticalVars returns the control-critical subset of Vars.
func (f *FilterMap) CriticalVars() []Var {
	var out []Var
	for _, v := range f.Vars {
		if v.Kind == ControlCritical {
			out = append(out, v)
		}
	}
	return out
}

// ProtectionMap aggregates per-filter analyses, the package's
// machine-readable product.
type ProtectionMap struct {
	Filters []*FilterMap `json:"filters"`
}

// Merge appends another map's filters.
func (m *ProtectionMap) Merge(other *ProtectionMap) {
	if other != nil {
		m.Filters = append(m.Filters, other.Filters...)
	}
}

// Findings returns every finding across filters, in source order.
func (m *ProtectionMap) Findings() []Finding {
	var out []Finding
	for _, f := range m.Filters {
		out = append(out, f.Findings...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// Fractions returns filter name -> control-critical fraction, the shape
// sim.Config.CritFractions consumes.
func (m *ProtectionMap) Fractions() map[string]float64 {
	out := make(map[string]float64, len(m.Filters))
	for _, f := range m.Filters {
		out[f.Name] = f.ControlFraction()
	}
	return out
}

// FractionFor resolves a runtime filter name against the analyzed names:
// exact match first, then the longest analyzed name that prefixes the
// query (NewFuncFilter names built with Sprintf are stored verb-stripped,
// so "chan%d" matches "chan3").
func (m *ProtectionMap) FractionFor(name string) (float64, bool) {
	best, bestLen := 0.0, -1
	for _, f := range m.Filters {
		if f.Name == name {
			return f.ControlFraction(), true
		}
		if f.Name != "" && strings.HasPrefix(name, f.Name) && len(f.Name) > bestLen {
			best, bestLen = f.ControlFraction(), len(f.Name)
		}
	}
	return best, bestLen >= 0
}

// FilterFor resolves a runtime filter name to its analyzed map with the
// same exact-then-longest-prefix rule as FractionFor. It returns nil for
// names with no analyzed counterpart (builtin sources/sinks, identity
// shims).
func (m *ProtectionMap) FilterFor(name string) *FilterMap {
	var best *FilterMap
	bestLen := -1
	for _, f := range m.Filters {
		if f.Name == name {
			return f
		}
		if f.Name != "" && strings.HasPrefix(name, f.Name) && len(f.Name) > bestLen {
			best, bestLen = f, len(f.Name)
		}
	}
	return best
}

// MeanFraction is the statement-weighted mean control-critical fraction.
func (m *ProtectionMap) MeanFraction() float64 {
	stmts, control := 0, 0
	for _, f := range m.Filters {
		stmts += f.Stmts
		control += f.ControlStmts
	}
	if stmts == 0 {
		return 0
	}
	return float64(control) / float64(stmts)
}

// Mode selects where stream data enters the analyzed functions.
type Mode int

const (
	// FilterMode analyzes work functions (a *stream.Ctx parameter):
	// taint enters through ctx.Pop/Peek calls.
	FilterMode Mode = iota
	// KernelMode analyzes every function of a codec/DSP package: taint
	// enters through element reads of slice/array parameters (the popped
	// frame handed to the kernel). Scalar parameters are treated as
	// structural configuration (rates, sizes), not stream data.
	KernelMode
)

// AnalyzeSource analyzes in-memory source (for tests). Findings covered
// by an ignore directive are dropped.
func AnalyzeSource(filename, src string, mode Mode) (*ProtectionMap, error) {
	return analyzeFile(filename, src, mode)
}

// analyzeFile parses one file (from src when non-nil, else from disk),
// analyzes it and drops the findings its directives cover.
func analyzeFile(filename string, src any, mode Mode) (*ProtectionMap, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("crit: %w", err)
	}
	a := &fileAnalyzer{fset: fset, file: f, pkg: f.Name.Name, mode: mode, imports: importNames(f)}
	m := a.run()
	suppressFindings(fset, f, m)
	return m, nil
}

// ctxPopFns are the Ctx methods that deliver stream data.
var ctxPopFns = map[string]bool{
	"Pop": true, "PopF32": true, "PopI32": true,
	"Peek": true, "PeekF32": true,
}

// guardFnRe matches callee names that bound their argument; a tainted
// value routed through one counts as guarded.
var guardFnRe = regexp.MustCompile(`(?i)(clamp|bound|min|max|guard|limit)`)

// sprintfVerbRe strips format verbs from Sprintf'd filter names.
var sprintfVerbRe = regexp.MustCompile(`%[-+ #0]*[0-9*]*(\.[0-9*]+)?[a-zA-Z]`)

// fileAnalyzer holds per-file discovery state.
type fileAnalyzer struct {
	fset    *token.FileSet
	file    *ast.File
	pkg     string
	mode    Mode
	imports map[string]bool
	// works records each Work method's analysis, keyed by receiver type,
	// for the CM003 cross-method field-mutation check.
	works map[string]workInfo
}

func importNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			name = p[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = true
	}
	return names
}

// isCtxType reports whether a parameter type is *Ctx / *stream.Ctx.
func isCtxType(t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.Ident:
		return x.Name == "Ctx"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Ctx"
	}
	return false
}

// ctxParamNames returns the names of *Ctx-typed parameters.
func ctxParamNames(params *ast.FieldList) []string {
	var out []string
	if params == nil {
		return nil
	}
	for _, field := range params.List {
		if !isCtxType(field.Type) {
			continue
		}
		for _, n := range field.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// run discovers analyzable functions and analyzes each.
func (a *fileAnalyzer) run() *ProtectionMap {
	m := &ProtectionMap{}
	names := a.funcLitNames()

	for _, decl := range a.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ctxNames := ctxParamNames(fn.Type.Params)
		switch {
		case len(ctxNames) > 0:
			// A work function or ctx-taking helper.
			fm := a.analyzeFunc(a.declName(fn), fn.Recv, fn.Type.Params, fn.Body, FilterMode, ctxNames, fn.Pos())
			m.Filters = append(m.Filters, fm)
			a.recordWork(fn, fm)
		case a.mode == KernelMode:
			m.Filters = append(m.Filters, a.analyzeFunc(a.declName(fn), fn.Recv, fn.Type.Params, fn.Body, KernelMode, nil, fn.Pos()))
		}
		// Nested FuncLits with their own ctx parameter (closures handed to
		// NewFuncFilter from inside builders) are discovered below; the
		// enclosing builder itself has no ctx param and is skipped in
		// filter mode.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			litCtx := ctxParamNames(lit.Type.Params)
			if len(litCtx) == 0 {
				return true
			}
			name := names[lit]
			if name == "" {
				pos := a.fset.Position(lit.Pos())
				name = fmt.Sprintf("%s.func@%d", a.pkg, pos.Line)
			}
			m.Filters = append(m.Filters, a.analyzeFunc(name, nil, lit.Type.Params, lit.Body, FilterMode, litCtx, lit.Pos()))
			return false // the closure is analyzed as its own function
		})
	}

	a.checkFieldMutations(m)
	return m
}

// declName builds the display name of a FuncDecl.
func (a *fileAnalyzer) declName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		if t := recvTypeName(fn.Recv.List[0].Type); t != "" {
			if fn.Name.Name == "Work" {
				return a.pkg + "." + t
			}
			return a.pkg + "." + t + "." + fn.Name.Name
		}
	}
	return a.pkg + "." + fn.Name.Name
}

func recvTypeName(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(x.X)
	}
	return ""
}

// funcLitNames maps FuncLit nodes to display names derived from their use
// site: the name argument of an enclosing NewFuncFilter call, or the
// variable they are assigned to.
func (a *fileAnalyzer) funcLitNames() map[*ast.FuncLit]string {
	names := map[*ast.FuncLit]string{}
	ast.Inspect(a.file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if calleeName(node.Fun) != "NewFuncFilter" || len(node.Args) == 0 {
				return true
			}
			lit, ok := node.Args[len(node.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			if name := stringArgValue(node.Args[0]); name != "" {
				names[lit] = name
			}
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(node.Lhs) {
					continue
				}
				if id, ok := node.Lhs[i].(*ast.Ident); ok {
					names[lit] = a.pkg + "." + id.Name
				}
			}
		}
		return true
	})
	return names
}

func calleeName(fun ast.Expr) string {
	switch x := fun.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// stringArgValue extracts a literal filter name: a string literal, or the
// format of a Sprintf call with the verbs stripped.
func stringArgValue(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == token.STRING {
			if s, err := strconv.Unquote(x.Value); err == nil {
				return s
			}
		}
	case *ast.CallExpr:
		if calleeName(x.Fun) == "Sprintf" && len(x.Args) > 0 {
			if format := stringArgValue(x.Args[0]); format != "" {
				return strings.TrimRight(sprintfVerbRe.ReplaceAllString(format, ""), "-_ ")
			}
		}
	}
	return ""
}
