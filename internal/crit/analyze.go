package crit

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"commguard/internal/srcload"
)

// ignoreMarker is the waiver marker shared with internal/lint; the grammar
// is srcload.ParseDirectives.
const ignoreMarker = "repolint:ignore"

// suppressFindings drops findings covered by a repolint:ignore directive on
// the same line, the line directly above, or at file level (before the
// package clause).
func suppressFindings(fset *token.FileSet, f *ast.File, m *ProtectionMap) {
	dirs := srcload.ParseDirectives(fset, f, ignoreMarker)
	if len(dirs) == 0 {
		return
	}
	covered := func(fi Finding) bool {
		for _, d := range dirs {
			if d.Waives(fi.Code, fi.Pos.Line) {
				return true
			}
		}
		return false
	}
	for _, fm := range m.Filters {
		var kept []Finding
		for _, fi := range fm.Findings {
			if !covered(fi) {
				kept = append(kept, fi)
			}
		}
		fm.Findings = kept
	}
}

// SourceDir pairs an analyzed directory with its taint mode.
type SourceDir struct {
	Dir  string
	Mode Mode
}

// RepoSources lists the directories AnalyzeRepo covers, relative to the
// repo root: filter code in filter mode, codec/DSP kernels in kernel mode.
func RepoSources() []SourceDir {
	return []SourceDir{
		{Dir: "internal/apps", Mode: FilterMode},
		{Dir: "internal/stream", Mode: FilterMode},
		{Dir: "internal/codec/jpegcodec", Mode: KernelMode},
		{Dir: "internal/codec/mp3codec", Mode: KernelMode},
		{Dir: "internal/codec/bitio", Mode: KernelMode},
		{Dir: "internal/dsp", Mode: KernelMode},
	}
}

// AnalyzeRepo analyzes the program's filter and kernel sources
// (RepoSources). A listed directory that is missing or holds no Go files
// is an error: silently skipping it would drop its whole CM analysis.
func AnalyzeRepo(p *srcload.Program) (*ProtectionMap, error) {
	m := &ProtectionMap{}
	for _, src := range RepoSources() {
		files, err := p.Files(src.Dir)
		if err != nil {
			return nil, fmt.Errorf("crit: %w", err)
		}
		dm := &ProtectionMap{}
		for _, f := range files {
			dm.Merge(analyzeFile(p.Fset, f, src.Mode))
		}
		sort.Slice(dm.Filters, func(i, j int) bool {
			if dm.Filters[i].File != dm.Filters[j].File {
				return dm.Filters[i].File < dm.Filters[j].File
			}
			return dm.Filters[i].Line < dm.Filters[j].Line
		})
		m.Merge(dm)
	}
	return m, nil
}
