// Package hotpath is a whole-program purity analyzer for the repository's
// fast paths. PR 3 bought the queue transit down to single-digit
// nanoseconds per item and the ROADMAP's kernel-fusion work wants the same
// property inside the filter kernels — but "the steady state does not
// allocate and does not block" was, until now, pinned only by runtime
// benchmarks that silently rot when a new code path skips them. This
// package turns the property into a static proof that runs on every
// commit.
//
// # Annotation grammar
//
// Analysis starts from functions whose doc comment carries a
// //hotpath:entry directive and walks everything statically reachable from
// them:
//
//	//hotpath:entry
//	func (q *Queue) Push(u unit.Unit) bool { ... }
//
// A function that is a sanctioned slow-path boundary — the working-set
// exchange funnels of Fig. 6, which legitimately wait and pay the ECC
// pointer exchange once per working set — is marked //hotpath:ok with a
// reason; the walk stops there and the function body is exempt:
//
//	//hotpath:ok working-set exchange: lock-free ECC pointer advance (Table 3)
//	func (q *Queue) publish() { ... }
//
// A statement-level finding can be suppressed in place, naming the codes
// being waived, with the directive on the same line or the line above.
// The grammar is //repolint:ignore's (srcload.ParseDirectives): codes are
// space- or comma-separated, the reason starts at the first non-code
// token, and a directive naming no code waives all four. One that names
// codes waives only those, even when they are not hotpath codes
// ("RL001 reason") or the reason follows a comma ("CS021,reason"):
//
//	//hotpath:ok CS020 one-time warmup allocation
//	buf := make([]float64, n)
//
// # Findings
//
// Every operation reachable from an entry that violates the purity
// contract is reported with the reconstructed call path from the entry
// (mirroring CS001's taint paths):
//
//	CS020  heap allocation: make/new/append, escaping composite literals,
//	       string concatenation, boxing into an interface
//	CS021  blocking operation: mutex lock, channel send/recv/select,
//	       time.Sleep, goroutine spawn, syscall-y stdlib calls
//	CS022  hidden control flow / map mutation: defer, recover, map write
//	CS023  opaque call: function values, interface method dispatch,
//	       reflection, unclassified stdlib, bodyless functions
//
// # Facts cache and opacity rules
//
// The walk computes per-function facts (local violations + resolved static
// callees) once and caches them, so shared helpers are scanned a single
// time no matter how many entries reach them. In-module callees are
// descended into; stdlib callees are classified by an explicit table
// (std.go) — pure, allocating, blocking — and anything the table does not
// know is opaque (CS023) by design: the analyzer refuses to guess, which
// is what keeps the proof honest. Function values, interface dispatch and
// reflection are opaque for the same reason.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"commguard/internal/srcload"
)

// Finding codes. The CS02x block follows CS001-CS003 (soundness verdicts)
// and CS010/CS012 (queue atomics discipline; CS011 is retired).
const (
	// CodeAlloc flags a heap allocation on a hot path (CS020).
	CodeAlloc = "CS020"
	// CodeBlock flags a blocking operation on a hot path (CS021).
	CodeBlock = "CS021"
	// CodeHidden flags defer/recover/map mutation on a hot path (CS022).
	CodeHidden = "CS022"
	// CodeOpaque flags a call the analyzer cannot see through (CS023).
	CodeOpaque = "CS023"
)

// Finding is one purity violation reachable from a //hotpath:entry.
type Finding struct {
	// Pos locates the offending operation.
	Pos token.Position
	// Code is CS020..CS023.
	Code string
	// Entry is the qualified name of the entry the violation is reachable
	// from (the first entry to reach it, in source order).
	Entry string
	// Path is the reconstructed call chain entry -> ... -> containing
	// function (qualified names; length 1 when the violation is in the
	// entry itself).
	Path []string
	// Message states the defect.
	Message string
}

// Func returns the qualified name of the function containing the finding.
func (f Finding) Func() string {
	if len(f.Path) == 0 {
		return f.Entry
	}
	return f.Path[len(f.Path)-1]
}

// String renders "file:line:col: CODE message (path: a -> b)".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s %s (path: %s)",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Message,
		strings.Join(f.Path, " -> "))
}

// directive markers. Kept in their comment spelling so grep finds both the
// grammar and its parser.
const (
	entryMarker = "hotpath:entry"
	okMarker    = "hotpath:ok"
)

// funcAnn is the annotation state of one function declaration.
type funcAnn struct {
	entry bool
	// ok marks a sanctioned slow-path boundary: the walk stops at the
	// function and its body is exempt. entry wins when both are present.
	ok bool
	// reason is the justification text after //hotpath:ok.
	reason string
}

// parseFuncAnn reads the doc comment of a declaration.
func parseFuncAnn(doc *ast.CommentGroup) funcAnn {
	var ann funcAnn
	if doc == nil {
		return ann
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		switch {
		case text == entryMarker || strings.HasPrefix(text, entryMarker+" "):
			ann.entry = true
		case text == okMarker || strings.HasPrefix(text, okMarker+" "):
			ann.ok = true
			ann.reason = strings.TrimSpace(strings.TrimPrefix(text, okMarker))
		}
	}
	return ann
}

// Sources lists the repo directories (relative to the module root) that
// carry //hotpath:entry annotations and are analyzed by AnalyzeRepo.
func Sources() []string {
	return []string{
		"internal/queue",
		"internal/commguard",
		"internal/stream",
		"internal/dsp",
		"internal/codec/mp3codec",
		"internal/ecc",
		"internal/obs",
	}
}

// AnalyzeRepo analyzes the standard annotated directories (Sources) of the
// program. The repository must type-check; a type error is returned as an
// error, not a finding.
func AnalyzeRepo(p *srcload.Program) ([]Finding, error) {
	return AnalyzeDirs(p, Sources())
}

// AnalyzeDirs analyzes the given directories (relative to the module root)
// plus everything in-module they transitively import. Entries are
// discovered only in the named directories; findings may point anywhere
// reachable.
func AnalyzeDirs(p *srcload.Program, dirs []string) ([]Finding, error) {
	for _, dir := range dirs {
		if _, err := p.Check(dir); err != nil {
			return nil, fmt.Errorf("hotpath: loading %s: %w", dir, err)
		}
	}
	return newAnalyzer(p, false).run(dirs), nil
}

// AnalyzeSource analyzes a single in-memory file leniently: calls whose
// callee cannot be resolved (missing cross-file declarations, unimported
// packages) are skipped rather than reported, so a lone file out of a
// larger package does not drown in spurious CS023. On-disk code gets the
// whole-program analysis (AnalyzeRepo).
func AnalyzeSource(filename string, src []byte) ([]Finding, error) {
	p, _, err := srcload.Source(filename, src)
	if err != nil {
		return nil, err
	}
	if _, err := p.Check("."); err != nil {
		return nil, err
	}
	return newAnalyzer(p, true).run([]string{"."}), nil
}

// sortFindings orders findings by position then code, deterministically.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Code < b.Code
	})
}
