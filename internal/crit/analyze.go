package crit

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// ignoreDirective is the comment prefix shared with internal/lint.
const ignoreDirective = "repolint:ignore"

// codeRe recognizes rule-code tokens inside a directive ("CM001,RL004").
var codeRe = regexp.MustCompile(`^[A-Z]{2}[0-9]{3}$`)

// Directive is one parsed repolint:ignore comment. Codes may be separated
// by spaces or commas; an empty code set suppresses everything. A directive
// placed before the package clause is file-level.
type Directive struct {
	Pos       token.Position
	Line      int
	Codes     map[string]bool
	FileLevel bool
}

// ParseDirectives extracts every repolint:ignore directive from a parsed
// file. Exported because internal/lint shares the grammar.
func ParseDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	pkgLine := fset.Position(f.Package).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, ignoreDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
			codes := map[string]bool{}
			for _, tok := range strings.FieldsFunc(rest, func(r rune) bool {
				return r == ' ' || r == '\t' || r == ','
			}) {
				if !codeRe.MatchString(tok) {
					break // reason text starts
				}
				codes[tok] = true
			}
			pos := fset.Position(c.Pos())
			out = append(out, Directive{Pos: pos, Line: pos.Line, Codes: codes, FileLevel: pos.Line < pkgLine})
		}
	}
	return out
}

// Covers reports whether the directive suppresses the given code.
func (d Directive) Covers(code string) bool {
	return len(d.Codes) == 0 || d.Codes[code]
}

// suppressFindings drops findings covered by a repolint:ignore directive on
// the same line, the line directly above, or at file level (before the
// package clause).
func suppressFindings(fset *token.FileSet, f *ast.File, m *ProtectionMap) {
	dirs := ParseDirectives(fset, f)
	if len(dirs) == 0 {
		return
	}
	covered := func(fi Finding) bool {
		for _, d := range dirs {
			if !d.Covers(fi.Code) {
				continue
			}
			if d.FileLevel || d.Line == fi.Pos.Line || d.Line == fi.Pos.Line-1 {
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

// AnalyzeDir analyzes every non-test Go file directly in dir.
func AnalyzeDir(dir string, mode Mode) (*ProtectionMap, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("crit: %w", err)
	}
	m := &ProtectionMap{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		fm, err := analyzeFile(filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		m.Merge(fm)
	}
	sort.Slice(m.Filters, func(i, j int) bool {
		if m.Filters[i].File != m.Filters[j].File {
			return m.Filters[i].File < m.Filters[j].File
		}
		return m.Filters[i].Line < m.Filters[j].Line
	})
	return m, nil
}

// SourceDir pairs an analyzed directory with its taint mode.
type SourceDir struct {
	Dir  string
	Mode Mode
}

// RepoSources lists the directories AnalyzeRepo covers, relative to the
// repo root: filter code in filter mode, codec/DSP kernels in kernel mode.
// Directories that do not exist (yet) are skipped by AnalyzeRepo.
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

// AnalyzeRepo analyzes the repo's filter and kernel sources under root.
func AnalyzeRepo(root string) (*ProtectionMap, error) {
	m := &ProtectionMap{}
	for _, src := range RepoSources() {
		dir := filepath.Join(root, filepath.FromSlash(src.Dir))
		if _, err := os.Stat(dir); err != nil {
			continue
		}
		dm, err := AnalyzeDir(dir, src.Mode)
		if err != nil {
			return nil, err
		}
		m.Merge(dm)
	}
	return m, nil
}

// FindRepoRoot walks up from the working directory to the enclosing Go
// module root (the directory holding go.mod). It lets tests and experiment
// runs analyze the repo's own sources at runtime regardless of which
// package directory the test binary runs in.
func FindRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("crit: no go.mod found above working directory")
		}
		dir = parent
	}
}
