package hotpath

import (
	"strings"

	"commguard/internal/check"
)

// FactKey names the check.Config.Facts entry carrying the hotpath
// analysis result (*Fact). The CS020-series rules skip themselves when it
// is absent, keeping internal/check free of a hotpath dependency.
const FactKey = "hotpath"

// Fact is the cross-package fact handed to check.RunRepo.
type Fact struct {
	Findings []Finding
}

func factFor(ctx *check.Context) *Fact {
	f, _ := ctx.Fact(FactKey).(*Fact)
	return f
}

func init() {
	register(CodeAlloc, "hotpath-alloc",
		"heap allocation reachable from a //hotpath:entry function")
	register(CodeBlock, "hotpath-block",
		"blocking operation reachable from a //hotpath:entry function")
	register(CodeHidden, "hotpath-hidden",
		"defer/recover/map mutation reachable from a //hotpath:entry function")
	register(CodeOpaque, "hotpath-opaque",
		"opaque call (function value, interface dispatch, reflection, unclassified stdlib) reachable from a //hotpath:entry function")
}

func register(code, name, doc string) {
	check.Register(check.Rule{
		Code:  code,
		Name:  name,
		Doc:   doc,
		Scope: check.ScopeRepo,
		Check: func(ctx *check.Context) []check.Diagnostic {
			fact := factFor(ctx)
			if fact == nil {
				return nil
			}
			var out []check.Diagnostic
			for _, f := range fact.Findings {
				if f.Code != code {
					continue
				}
				out = append(out, check.Diagnostic{
					Code:     f.Code,
					Severity: check.Warning,
					File:     f.Pos.Filename,
					Line:     f.Pos.Line,
					Col:      f.Pos.Column,
					Symbol:   f.Func(),
					Message:  f.Message + " [entry " + f.Entry + "; path " + strings.Join(f.Path, " -> ") + "]",
					Fix:      "make the path pure, mark a sanctioned boundary //hotpath:ok with a reason, or baseline the finding",
				})
			}
			return out
		},
	})
}
