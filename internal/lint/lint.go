// Package lint is a stdlib-only source analyzer enforcing the repo's
// concurrency and determinism invariants — the properties the runtime
// packages rely on but the compiler cannot check:
//
//	RL001  internal/stream and internal/commguard communicate exclusively
//	       through the queue/transport layer: no raw channel operations
//	       (send, receive, close, select, chan types) outside transport.go.
//	       CommGuard's realignment argument (§4.4) assumes every
//	       inter-node data path is a guarded queue; a stray channel is an
//	       unprotected side channel.
//	RL002  internal/fault must not use math/rand's global generator
//	       (rand.Intn, rand.Seed, ...). Fault injection is reproducible
//	       only when every injector draws from its own seeded *rand.Rand.
//	RL003  PushRates/PopRates implementations must be constant: the
//	       steady-state schedule is solved once from these rates, so they
//	       cannot mutate state, touch channels, or consult rand/time.
//	RL006  repolint:ignore directives that suppress nothing are stale and
//	       reported themselves (directives naming non-RL codes are exempt:
//	       they target other analyses, e.g. internal/crit's CM codes).
//
// commguard-vet reports these rules under tool "repolint". Popped-data
// control flow, the queue atomics discipline and hot-path purity are not
// lint rules: they are internal/crit's CM001–CM003, internal/soundness's
// CS010/CS012 and internal/hotpath's CS020–CS023, each reported once.
//
// Findings can be suppressed with a `//repolint:ignore RL00x reason`
// comment on the same line, the line directly above, or — file-wide —
// before the package clause. Multiple codes may be space- or
// comma-separated; a bare directive suppresses every code. The grammar is
// internal/srcload's (srcload.ParseDirectives), which internal/crit reads
// for its CM codes and internal/hotpath for //hotpath:ok.
//
// The linter keeps its own tree walk rather than srcload's package loader:
// it lints _test.go files and the separate bench/ module, which the
// analyzed program does not contain.
//
// The analyzer is built on go/parser and go/ast alone — no go/packages, no
// module downloads — so it runs in a hermetic CI container.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"commguard/internal/srcload"
)

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the conventional "file:line:col: [RULE] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// globalRandFns is the math/rand package-level API backed by the shared
// global generator. Constructors (New, NewSource) and types are fine.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// Run lints every Go file under root (a directory tree; "./..." semantics)
// and returns the findings sorted by position. Vendored trees, testdata
// and _-prefixed directories are skipped, matching the go tool's package
// walking rules.
func Run(root string) ([]Finding, error) {
	var findings []Finding
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		fileFindings, ferr := lintFile(path, nil)
		if ferr != nil {
			return ferr
		}
		findings = append(findings, fileFindings...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, nil
}

// Source lints in-memory source (for tests).
func Source(filename string, src string) ([]Finding, error) {
	return lintFile(filename, src)
}

// lintFile parses one file (from src when non-nil, else from disk) and
// runs every rule whose path scope covers it.
func lintFile(path string, src any) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var findings []Finding
	report := func(pos token.Pos, rule, msg string) {
		findings = append(findings, Finding{Pos: fset.Position(pos), Rule: rule, Message: msg})
	}
	if rawChanApplies(path) {
		checkRawChan(fset, f, report)
	}
	if globalRandApplies(path) {
		checkGlobalRand(f, report)
	}
	checkConstRates(f, report)
	return suppress(fset, f, findings), nil
}

// inPackageDir reports whether path lies in one of pkgs. Separators are
// canonicalized so relative and absolute invocations match alike.
func inPackageDir(path string, pkgs ...string) bool {
	p := filepath.ToSlash(path)
	for _, pkg := range pkgs {
		if strings.Contains(p, pkg+"/") {
			return true
		}
	}
	return false
}

// rawChanApplies scopes RL001: the stream and commguard runtime packages,
// except the transport implementations (the one sanctioned place for
// low-level plumbing) and tests.
func rawChanApplies(path string) bool {
	if !inPackageDir(path, "internal/stream", "internal/commguard") {
		return false
	}
	base := filepath.Base(path)
	return base != "transport.go" && !strings.HasSuffix(base, "_test.go")
}

// globalRandApplies scopes RL002 to the fault package (tests included:
// reproducibility matters most there).
func globalRandApplies(path string) bool {
	return inPackageDir(path, "internal/fault")
}

// checkRawChan reports every raw channel construct: sends, receives,
// closes, selects and chan types.
func checkRawChan(fset *token.FileSet, f *ast.File, report func(token.Pos, string, string)) {
	const rule = "RL001"
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			report(node.Pos(), rule, "raw channel send; inter-node data must flow through the queue transport")
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				report(node.Pos(), rule, "raw channel receive; inter-node data must flow through the queue transport")
			}
		case *ast.ChanType:
			report(node.Pos(), rule, "channel type; inter-node data must flow through the queue transport")
		case *ast.SelectStmt:
			report(node.Pos(), rule, "select over channels; inter-node data must flow through the queue transport")
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "close" && len(node.Args) == 1 {
				report(node.Pos(), rule, "close() on a channel; lifecycle belongs to the transport layer")
			}
		}
		return true
	})
}

// checkGlobalRand reports uses of math/rand's package-level generator.
func checkGlobalRand(f *ast.File, report func(token.Pos, string, string)) {
	const rule = "RL002"
	randName := ""
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != "math/rand" {
			continue
		}
		randName = "rand"
		if imp.Name != nil {
			randName = imp.Name.Name
		}
	}
	if randName == "" || randName == "_" || randName == "." {
		// Dot imports of math/rand would defeat this purely syntactic
		// check, but gofmt'd code in this repo never dot-imports.
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != randName || id.Obj != nil {
			// id.Obj != nil means a local identifier shadows the import.
			return true
		}
		if globalRandFns[sel.Sel.Name] {
			report(sel.Pos(), rule,
				fmt.Sprintf("math/rand global-state call rand.%s; draw from the injector's seeded *rand.Rand instead", sel.Sel.Name))
		}
		return true
	})
}

// checkConstRates reports PushRates/PopRates implementations with side
// effects or nondeterminism. The schedule solver evaluates these methods
// once and assumes the answer holds for the whole run, so they must be
// pure functions of construction-time state: no receiver/global mutation,
// no channel traffic, no rand or time consultation.
func checkConstRates(f *ast.File, report func(token.Pos, string, string)) {
	const rule = "RL003"
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil {
			continue
		}
		if fn.Name.Name != "PushRates" && fn.Name.Name != "PopRates" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					if isFieldRef(lhs) {
						report(lhs.Pos(), rule,
							fn.Name.Name+" mutates state; rate methods must be constant over the run")
					}
				}
			case *ast.IncDecStmt:
				if isFieldRef(node.X) {
					report(node.Pos(), rule,
						fn.Name.Name+" mutates state; rate methods must be constant over the run")
				}
			case *ast.SendStmt:
				report(node.Pos(), rule, fn.Name.Name+" performs channel operations; rate methods must be pure")
			case *ast.UnaryExpr:
				if node.Op == token.ARROW {
					report(node.Pos(), rule, fn.Name.Name+" performs channel operations; rate methods must be pure")
				}
			case *ast.CallExpr:
				if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && (id.Name == "rand" || id.Name == "time") {
						report(node.Pos(), rule,
							fmt.Sprintf("%s calls %s.%s; rate methods must be deterministic", fn.Name.Name, id.Name, sel.Sel.Name))
					}
				}
			}
			return true
		})
	}
}

// isFieldRef reports whether an lvalue writes through a selector or index
// expression (receiver fields, globals, slice elements) rather than a
// plain local variable.
func isFieldRef(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isFieldRef(x.X)
	case *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return isFieldRef(x.X)
	}
	return false
}

// suppress drops findings covered by a repolint:ignore directive (same
// line, line directly above, or file-level before the package clause) and
// reports RL-targeted directives that suppressed nothing as RL006.
// The grammar is srcload.ParseDirectives, shared with internal/crit and
// internal/hotpath.
func suppress(fset *token.FileSet, f *ast.File, findings []Finding) []Finding {
	dirs := srcload.ParseDirectives(fset, f, "repolint:ignore")
	matched := make([]bool, len(dirs))
	var kept []Finding
	for _, fi := range findings {
		drop := false
		for i, d := range dirs {
			if d.Waives(fi.Rule, fi.Pos.Line) {
				matched[i] = true
				drop = true
			}
		}
		if !drop {
			kept = append(kept, fi)
		}
	}
	for i, d := range dirs {
		if matched[i] || hasNonRLCode(d) {
			continue
		}
		kept = append(kept, Finding{
			Pos:  d.Pos,
			Rule: "RL006",
			Message: "stale repolint:ignore directive: it suppresses no finding; " +
				"delete it or narrow it to the code it was written for",
		})
	}
	return kept
}

// hasNonRLCode exempts a directive from stale detection when it names a
// code owned by another analysis (internal/crit's CM codes): this linter
// cannot judge whether those still match.
func hasNonRLCode(d srcload.Directive) bool {
	for code := range d.Codes {
		if !strings.HasPrefix(code, "RL") {
			return true
		}
	}
	return false
}
