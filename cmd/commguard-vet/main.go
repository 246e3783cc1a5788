// Command commguard-vet is the repo's one static verifier: it runs the
// graph checker (CG001–CG006), the soundness edge verdicts (CS001–CS003),
// the criticality dataflow (CM001–CM003), the repo linter (RL001–RL003,
// RL006), the queue atomics discipline (CS010–CS012) and the hot-path
// purity analysis (CS020–CS023) in a single invocation, merges everything
// into the shared diagnostic schema (internal/diag), and applies the
// checked-in baseline: error-severity findings always fail, warnings fail
// only when they are not in the baseline. With -all, baseline entries
// matching no current finding are reported as stale; -fail-stale turns that
// into a failure (the CI gate) and -prune-baseline rewrites the file
// without them.
//
// Examples:
//
//	commguard-vet -all                          verify everything, human output
//	commguard-vet -app jpeg                     verify one benchmark's graph
//	commguard-vet -all -json                    fatal findings in the diag schema
//	commguard-vet -all -sarif vet.sarif         also write SARIF 2.1.0 for CI upload
//	commguard-vet -all -protection software-queue   classify edges as unguarded
//	commguard-vet -all -write-baseline          accept current warnings
//	commguard-vet -all -prune-baseline          drop stale baseline entries
//	commguard-vet -all -fail-stale              fail on stale baseline entries
//
// Exit status: 0 clean, 1 unbaselined findings (or stale baseline entries
// under -fail-stale), 2 usage or analysis error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"commguard/internal/apps"
	"commguard/internal/check"
	"commguard/internal/crit"
	"commguard/internal/diag"
	"commguard/internal/hotpath"
	"commguard/internal/lint"
	"commguard/internal/soundness"
	"commguard/internal/stream"
)

func main() {
	appName := flag.String("app", "", "benchmark graph to verify (default: repo-wide checks only with -all)")
	all := flag.Bool("all", false, "verify every built-in benchmark plus the repo-wide analyses")
	jsonOut := flag.Bool("json", false, "emit fatal findings in the shared diagnostic JSON schema")
	sarifPath := flag.String("sarif", "", "also write a SARIF 2.1.0 log to this path (baselined findings marked suppressed)")
	baselinePath := flag.String("baseline", "", "baseline file (default <root>/vet.baseline.json)")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the baseline accepting every current warning, then verify against it")
	pruneBaseline := flag.Bool("prune-baseline", false, "rewrite the baseline dropping entries matching no current finding (needs -all)")
	failStale := flag.Bool("fail-stale", false, "exit 1 when the baseline has stale entries (needs -all)")
	protection := flag.String("protection", "commguard", "platform protection level for edge verdicts (error-free, software-queue, reliable-queue, commguard)")
	root := flag.String("root", "", "repo root (default: walk up to the enclosing go.mod)")
	flag.Parse()

	if *all == (*appName != "") {
		fmt.Fprintln(os.Stderr, "commguard-vet: pass exactly one of -app NAME or -all")
		os.Exit(2)
	}
	if *writeBaseline && *pruneBaseline {
		fmt.Fprintln(os.Stderr, "commguard-vet: -write-baseline and -prune-baseline are mutually exclusive")
		os.Exit(2)
	}
	if (*pruneBaseline || *failStale) && !*all {
		fmt.Fprintln(os.Stderr, "commguard-vet: -prune-baseline and -fail-stale need -all (staleness is only meaningful against the full finding set)")
		os.Exit(2)
	}
	guarded, ok := guardedFor(*protection)
	if !ok {
		fmt.Fprintf(os.Stderr, "commguard-vet: unknown protection %q (error-free, software-queue, reliable-queue, commguard)\n", *protection)
		os.Exit(2)
	}

	r := *root
	if r == "" {
		var err error
		r, err = crit.FindRepoRoot()
		if err != nil {
			fatal(err)
		}
	}
	if *baselinePath == "" {
		*baselinePath = filepath.Join(r, "vet.baseline.json")
	}

	var builders []apps.Builder
	if *all {
		builders = apps.AllBuiltin()
	} else {
		b, ok := apps.ByName(*appName)
		if !ok {
			fmt.Fprintf(os.Stderr, "commguard-vet: unknown benchmark %q\n", *appName)
			os.Exit(2)
		}
		builders = []apps.Builder{b}
	}

	ds, err := run(r, builders, *all, guarded)
	if err != nil {
		fatal(err)
	}

	if *writeBaseline {
		if err := writeBaselineFile(*baselinePath, ds); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "commguard-vet: wrote %s\n", *baselinePath)
	}
	bl, err := diag.LoadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}

	// Staleness: only -all sees the full finding set, so only -all can
	// judge whether a baseline entry still matches anything.
	var stale []string
	if *all {
		stale = bl.Stale(ds)
	}
	if *pruneBaseline && len(stale) > 0 {
		bl = bl.Prune(stale)
		f, err := os.Create(*baselinePath)
		if err != nil {
			fatal(err)
		}
		err = bl.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "commguard-vet: pruned %d stale entries from %s\n", len(stale), *baselinePath)
		stale = nil
	}
	for _, fp := range stale {
		fmt.Fprintf(os.Stderr, "commguard-vet: stale baseline entry (matches no current finding): %s\n", fp)
	}

	fatalDs, suppressed := bl.Partition(ds)

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		err = diag.ToSARIF("commguard-vet", ds, bl.Suppresses).Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		if err := diag.NewReport("commguard-vet", fatalDs).Write(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range fatalDs {
			fmt.Println(render(d))
		}
		errs := 0
		for _, d := range fatalDs {
			if d.Severity == "error" {
				errs++
			}
		}
		fmt.Printf("commguard-vet: %d findings (%d errors, %d warnings), %d suppressed by baseline, protection %s\n",
			len(fatalDs), errs, len(fatalDs)-errs, len(suppressed), *protection)
	}
	if len(fatalDs) > 0 {
		os.Exit(1)
	}
	if *failStale && len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "commguard-vet: %d stale baseline entries (-fail-stale); run commguard-vet -all -prune-baseline\n", len(stale))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "commguard-vet: %v\n", err)
	os.Exit(2)
}

// guardedFor maps a protection level to whether edges count as guarded for
// the soundness verdicts. Only CommGuard realigns frames (HI/AM), so only
// it renders proven critical flows safe; ErrorFree is trivially safe
// because no errors occur at all. ECC on queue pointers (ReliableQueue)
// protects management state but not payload sequencing.
func guardedFor(name string) (bool, bool) {
	switch name {
	case "commguard", "error-free":
		return true, true
	case "software-queue", "reliable-queue":
		return false, true
	}
	return false, false
}

// run executes every analysis family and merges the diagnostics. The
// graph-scoped families (graph checker + soundness edge verdicts) run per
// benchmark; the source-scoped families (criticality, lint, hot path,
// atomics) run once over the repo and only with -all, so -app stays cheap
// and focused. Each diagnostic's Tool names its family, which baseline
// fingerprints include.
func run(root string, builders []apps.Builder, repoWide, guarded bool) ([]diag.Diagnostic, error) {
	m, err := crit.AnalyzeRepo(root)
	if err != nil {
		return nil, fmt.Errorf("crit analysis: %w", err)
	}
	fact := &soundness.Fact{Crit: m}
	if guarded {
		fact.Guarded = func(*stream.Edge) bool { return true }
	}

	var ds []diag.Diagnostic
	cfg := check.DefaultConfig()
	cfg.Facts = map[string]any{soundness.FactKey: fact}
	for _, b := range builders {
		inst, err := b.New()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", b.Name, err)
		}
		for _, d := range check.Run(inst.Graph, cfg).Diagnostics {
			tool := "graphcheck"
			if strings.HasPrefix(d.Code, "CS") {
				tool = "soundness"
			}
			out := diag.Diagnostic{
				Tool:     tool,
				Code:     d.Code,
				Severity: d.Severity.String(),
				App:      b.Name,
				Message:  d.Message,
				Fix:      d.Fix,
			}
			switch {
			case d.Edge != nil:
				out.Edge = fmt.Sprintf("%s -> %s", d.Edge.Src.Name(), d.Edge.Dst.Name())
			case d.Node != nil:
				out.Node = d.Node.Name()
			}
			ds = append(ds, out)
		}
	}

	if !repoWide {
		return ds, nil
	}

	// Criticality dataflow violations (filters deriving control flow from
	// popped data) are errors: they are the statically-detectable
	// catastrophic pattern regardless of graph wiring.
	for _, fi := range m.Findings() {
		ds = append(ds, diag.Diagnostic{
			Tool:     "critmap",
			Code:     fi.Code,
			Severity: "error",
			File:     relTo(root, fi.Pos.Filename),
			Line:     fi.Pos.Line,
			Col:      fi.Pos.Column,
			Node:     fi.Filter,
			Message:  fi.Message,
		})
	}

	// Repo lint (RL001–RL003, RL006): warnings, baselineable.
	lfs, err := lint.Run(root)
	if err != nil {
		return nil, fmt.Errorf("repolint: %w", err)
	}
	for _, f := range lfs {
		ds = append(ds, diag.Diagnostic{
			Tool:     "repolint",
			Code:     f.Rule,
			Severity: "warning",
			File:     relTo(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}

	// Hot-path purity (CS020–CS023): whole-program walk from the
	// //hotpath:entry annotations, registered as repo-scoped check rules.
	hfs, err := hotpath.AnalyzeRepo(root)
	if err != nil {
		return nil, fmt.Errorf("hotpath: %w", err)
	}
	hcfg := check.Config{Facts: map[string]any{hotpath.FactKey: &hotpath.Fact{Findings: hfs}}}
	for _, d := range check.RunRepo(hcfg).Diagnostics {
		ds = append(ds, diag.Diagnostic{
			Tool:     "hotpath",
			Code:     d.Code,
			Severity: d.Severity.String(),
			File:     relTo(root, d.File),
			Line:     d.Line,
			Col:      d.Col,
			Node:     d.Symbol,
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}

	// Queue atomics discipline, cross-file. Ownership breaches and lock
	// bracket violations (CS010/CS011) are proven races — errors. A missing
	// annotation (CS012) is uncertainty, baselineable like the other
	// uncertain verdicts.
	afs, err := soundness.CheckAtomicsDir(filepath.Join(root, "internal", "queue"))
	if err != nil {
		return nil, fmt.Errorf("atomics: %w", err)
	}
	for _, f := range afs {
		sev := "error"
		if f.Code == "CS012" {
			sev = "warning"
		}
		ds = append(ds, diag.Diagnostic{
			Tool:     "soundness",
			Code:     f.Code,
			Severity: sev,
			File:     relTo(root, f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	return ds, nil
}

// relTo makes file paths repo-relative so baseline fingerprints and SARIF
// artifact URIs are stable across checkouts.
func relTo(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

func render(d diag.Diagnostic) string {
	var sb strings.Builder
	switch {
	case d.File != "":
		fmt.Fprintf(&sb, "%s:%d:%d: ", d.File, d.Line, d.Col)
	case d.Edge != "":
		fmt.Fprintf(&sb, "%s: edge %s: ", d.App, d.Edge)
	case d.Node != "":
		fmt.Fprintf(&sb, "%s: node %s: ", d.App, d.Node)
	default:
		fmt.Fprintf(&sb, "%s: ", d.App)
	}
	fmt.Fprintf(&sb, "[%s] %s: %s", d.Code, d.Severity, d.Message)
	if d.Fix != "" {
		fmt.Fprintf(&sb, " (fix: %s)", d.Fix)
	}
	return sb.String()
}

func writeBaselineFile(path string, ds []diag.Diagnostic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = diag.NewBaseline(ds).Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
