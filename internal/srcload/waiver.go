package srcload

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// codeRe recognizes rule-code tokens inside a directive ("CM001", "CS020").
var codeRe = regexp.MustCompile(`^[A-Z]{2}[0-9]{3}$`)

// Directive is one parsed waiver comment, `//<marker> CODE[,CODE] reason`
// (//repolint:ignore, //hotpath:ok). Codes may be separated by spaces or
// commas; the reason starts at the first token that is not a code. A
// directive naming no code waives every code. A directive placed before
// the package clause is file-level.
type Directive struct {
	Pos       token.Position
	Codes     map[string]bool
	FileLevel bool
}

// ParseDirectives extracts every directive with the given marker (e.g.
// "repolint:ignore") from a parsed file.
func ParseDirectives(fset *token.FileSet, f *ast.File, marker string) []Directive {
	var out []Directive
	pkgLine := fset.Position(f.Package).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, marker)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
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
			out = append(out, Directive{Pos: pos, Codes: codes, FileLevel: pos.Line < pkgLine})
		}
	}
	return out
}

// Waives reports whether the directive suppresses a finding of the given
// code on the given line: it names the code (or names none) and sits at
// file level, on that line, or on the line directly above.
func (d Directive) Waives(code string, line int) bool {
	return (len(d.Codes) == 0 || d.Codes[code]) &&
		(d.FileLevel || d.Pos.Line == line || d.Pos.Line == line-1)
}
