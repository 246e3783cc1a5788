// Package soundness proves (or refuses to prove) CommGuard's core static
// invariant: control-critical data must never cross a core boundary over an
// unprotected queue. internal/crit classifies what each filter does with
// popped data; internal/check knows the graph and the per-edge protection
// configuration. This package composes the two into a per-edge verdict:
//
//	proven-safe  no control-critical consumption crosses unguarded, and
//	             the consumer's taint stays inside the analysis horizon
//	CS001        violation: a proven pop -> control-state flow arrives
//	             over an unprotected queue (reported with the taint path)
//	CS002        uncertain: the consumer stores popped data into struct
//	             fields, globals or closures — the intraprocedural
//	             fixpoint cannot prove where it ends up
//	CS003        uncertain: popped data flows through reflection or
//	             function-value calls the fixpoint cannot follow
//
// A second analysis family (atomics.go) verifies the single-writer
// ownership discipline of internal/queue's lock-free transit (CS010, CS012).
//
// The edge rules register into internal/check's rule registry and consume
// their whole-program input through check.Config.Facts[FactKey], so a plain
// check.Run (no fact) is unaffected while commguard-vet lights them up.
package soundness

import (
	"fmt"
	"strings"

	"commguard/internal/check"
	"commguard/internal/crit"
	"commguard/internal/stream"
)

// FactKey is the check.Config.Facts key under which the soundness input is
// passed to the CS001–CS003 rules.
const FactKey = "soundness"

// Fact is the whole-program input to the edge rules: the repo's crit
// analysis plus the per-edge protection configuration under scrutiny.
type Fact struct {
	// Crit is the per-filter taint analysis (crit.AnalyzeRepo or
	// equivalent). Nil disables the edge rules.
	Crit *crit.ProtectionMap
	// Guarded reports whether an edge's transport realigns frames and
	// protects queue-management state (the CommGuard level; ErrorFree is
	// trivially guarded because no errors occur at all). Nil treats every
	// edge as unprotected — the conservative reading.
	Guarded func(e *stream.Edge) bool
}

func (f *Fact) guarded(e *stream.Edge) bool {
	return f.Guarded != nil && f.Guarded(e)
}

// consumerFor resolves the analyzed filter map of an edge's consumer.
// Builtin sources/sinks and identity shims have no analyzed counterpart and
// resolve to nil: no consumption to prove anything about.
func (f *Fact) consumerFor(e *stream.Edge) *crit.FilterMap {
	if f.Crit == nil {
		return nil
	}
	return f.Crit.FilterFor(e.Dst.F.Name())
}

// Verdict is the soundness classification of one edge.
type Verdict int

const (
	// VerdictSafe: no critical flow crosses unprotected and the taint
	// lattice is fully resolved.
	VerdictSafe Verdict = iota
	// VerdictViolation: a proven critical flow over an unprotected edge
	// (CS001).
	VerdictViolation
	// VerdictEscape: taint leaves the consumer's analysis horizon (CS002).
	VerdictEscape
	// VerdictOpaque: taint flows through calls the fixpoint cannot follow
	// (CS003).
	VerdictOpaque
)

func (v Verdict) String() string {
	switch v {
	case VerdictViolation:
		return "violation"
	case VerdictEscape:
		return "uncertain-escape"
	case VerdictOpaque:
		return "uncertain-opaque"
	}
	return "proven-safe"
}

// Code returns the diagnostic code a verdict reports under ("" for safe).
func (v Verdict) Code() string {
	switch v {
	case VerdictViolation:
		return "CS001"
	case VerdictEscape:
		return "CS002"
	case VerdictOpaque:
		return "CS003"
	}
	return ""
}

// VerdictFor classifies one consumer under one edge protection. The
// precedence is violation > escape > opaque: a proven unguarded critical
// flow outranks uncertainty, and an unresolved store outranks an
// unresolved call. A guarded edge renders proven critical consumption
// safe — realignment bounds desequencing — but cannot resolve escapes or
// opaque flows, which stay uncertain regardless of protection.
func VerdictFor(fm *crit.FilterMap, guarded bool) Verdict {
	if fm == nil {
		return VerdictSafe
	}
	switch {
	case fm.ConsumesCritically() && !guarded:
		return VerdictViolation
	case len(fm.Escapes) > 0:
		return VerdictEscape
	case len(fm.Opaque) > 0:
		return VerdictOpaque
	}
	return VerdictSafe
}

// EdgeVerdict pairs one edge with its classification, for reporting.
type EdgeVerdict struct {
	Edge    *stream.Edge
	Filter  *crit.FilterMap // consumer analysis; nil for unanalyzed filters
	Verdict Verdict
}

// Classify computes the verdict of every edge of a graph under a fact, in
// edge-ID order.
func Classify(g *stream.Graph, f *Fact) []EdgeVerdict {
	out := make([]EdgeVerdict, 0, len(g.Edges))
	for _, e := range g.Edges {
		fm := f.consumerFor(e)
		out = append(out, EdgeVerdict{Edge: e, Filter: fm, Verdict: VerdictFor(fm, f.guarded(e))})
	}
	return out
}

// factFor extracts the soundness fact from a check context; nil when the
// caller supplied none (plain check.Run calls).
func factFor(ctx *check.Context) *Fact {
	f, _ := ctx.Fact(FactKey).(*Fact)
	return f
}

func pathSummary(fm *crit.FilterMap) string {
	if len(fm.CriticalPaths) > 0 {
		paths := make([]string, len(fm.CriticalPaths))
		for i, p := range fm.CriticalPaths {
			paths[i] = p.String()
		}
		return "taint path " + strings.Join(paths, "; ")
	}
	// Direct CM001/CM002 violation sites with no reconstructible chain.
	for _, fi := range fm.Findings {
		if fi.Code == crit.CodeLoopBound || fi.Code == crit.CodeIndex {
			return fmt.Sprintf("%s at %s:%d", fi.Code, fi.Pos.Filename, fi.Pos.Line)
		}
	}
	return "critical consumption"
}

func init() {
	check.Register(check.Rule{
		Code: "CS001",
		Name: "critical-flow-unprotected",
		Doc:  "control-critical data crosses an unprotected queue",
		Check: func(ctx *check.Context) []check.Diagnostic {
			f := factFor(ctx)
			if f == nil {
				return nil
			}
			var out []check.Diagnostic
			for _, ev := range Classify(ctx.Graph, f) {
				if ev.Verdict != VerdictViolation {
					continue
				}
				out = append(out, check.Diagnostic{
					Severity: check.Error,
					Edge:     ev.Edge,
					Message: fmt.Sprintf("consumer %s derives control state from popped data (%s) but the edge is unprotected: one bit flip in transit can wedge the pipeline",
						ev.Edge.Dst.Name(), pathSummary(ev.Filter)),
					Fix: "guard the edge (CommGuard/ReliableQueue) or bound the popped value before it reaches control state",
				})
			}
			return out
		},
	})
	check.Register(check.Rule{
		Code: "CS002",
		Name: "taint-escapes-firing",
		Doc:  "popped data escapes the consumer's firing via fields, globals or closures",
		Check: func(ctx *check.Context) []check.Diagnostic {
			f := factFor(ctx)
			if f == nil {
				return nil
			}
			var out []check.Diagnostic
			for _, ev := range Classify(ctx.Graph, f) {
				if ev.Verdict != VerdictEscape {
					continue
				}
				sinks := make([]string, 0, len(ev.Filter.Escapes))
				for _, esc := range ev.Filter.Escapes {
					sinks = append(sinks, fmt.Sprintf("%s %s", esc.KindName, esc.Sink))
				}
				out = append(out, check.Diagnostic{
					Severity: check.Warning,
					Edge:     ev.Edge,
					Message: fmt.Sprintf("consumer %s stores popped data beyond the firing (%s): the fixpoint cannot prove it never becomes control state",
						ev.Edge.Dst.Name(), strings.Join(sinks, ", ")),
					Fix: "keep popped data local to the firing, or baseline the finding after manual review",
				})
			}
			return out
		},
	})
	check.Register(check.Rule{
		Code: "CS003",
		Name: "taint-through-opaque-call",
		Doc:  "popped data flows through reflection or function-value calls the analysis cannot follow",
		Check: func(ctx *check.Context) []check.Diagnostic {
			f := factFor(ctx)
			if f == nil {
				return nil
			}
			var out []check.Diagnostic
			for _, ev := range Classify(ctx.Graph, f) {
				if ev.Verdict != VerdictOpaque {
					continue
				}
				callees := make([]string, 0, len(ev.Filter.Opaque))
				for _, oc := range ev.Filter.Opaque {
					callees = append(callees, fmt.Sprintf("%s (%s)", oc.Callee, oc.Reason))
				}
				out = append(out, check.Diagnostic{
					Severity: check.Warning,
					Edge:     ev.Edge,
					Message: fmt.Sprintf("consumer %s routes popped data through calls the analysis cannot follow: %s",
						ev.Edge.Dst.Name(), strings.Join(callees, ", ")),
					Fix: "call the target directly, or baseline the finding after manual review",
				})
			}
			return out
		},
	})
}
