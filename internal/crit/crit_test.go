package crit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commguard/internal/srcload"
)

// analyze is a test helper: parse src and return the map, failing on error.
func analyze(t *testing.T, src string, mode Mode) *ProtectionMap {
	t.Helper()
	m, err := AnalyzeSource("test.go", src, mode)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return m
}

func codes(m *ProtectionMap) []string {
	var out []string
	for _, f := range m.Findings() {
		out = append(out, f.Code)
	}
	return out
}

func filterByName(t *testing.T, m *ProtectionMap, name string) *FilterMap {
	t.Helper()
	for _, f := range m.Filters {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no filter %q in %d filters", name, len(m.Filters))
	return nil
}

const filterHeader = `package apps

import "commguard/internal/stream"

`

func TestLoopBoundFromPoppedData(t *testing.T) {
	m := analyze(t, filterHeader+`
func build() *stream.FuncFilter {
	return stream.NewFuncFilter("bad", 1, 1, 1, func(in, out [][]uint32) {
		n := int(in[0][0])
		for i := 0; i < n; i++ {
			out[0][0] = uint32(i)
		}
	})
}
`, FilterMode)
	got := codes(m)
	if len(got) != 1 || got[0] != CodeLoopBound {
		t.Fatalf("want [CM001], got %v", got)
	}
	fm := filterByName(t, m, "bad")
	if fm.Findings[0].Filter != "bad" {
		t.Errorf("finding filter = %q, want bad", fm.Findings[0].Filter)
	}
}

func TestIndexFromPoppedData(t *testing.T) {
	m := analyze(t, filterHeader+`
var table [16]uint32

func build() *stream.FuncFilter {
	return stream.NewFuncFilter("idx", 1, 1, 1, func(in, out [][]uint32) {
		k := int(in[0][0])
		out[0][0] = table[k]
	})
}
`, FilterMode)
	if got := codes(m); len(got) != 1 || got[0] != CodeIndex {
		t.Fatalf("want [CM002], got %v", got)
	}
}

func TestDirectPopAsIndex(t *testing.T) {
	m := analyze(t, filterHeader+`
var table [16]uint32

func build() *stream.FuncFilter {
	return stream.NewFuncFilter("direct", 1, 1, 1, func(in, out [][]uint32) {
		out[0][0] = table[in[0][0]]
	})
}
`, FilterMode)
	if got := codes(m); len(got) != 1 || got[0] != CodeIndex {
		t.Fatalf("want [CM002], got %v", got)
	}
}

func TestGuardedIndexIsClean(t *testing.T) {
	for _, src := range []string{
		// Comparison guard in an if condition.
		`k := int(in[0][0])
		if k < 0 || k >= len(table) {
			return
		}
		out[0][0] = table[k]`,
		// Guard-named helper call.
		`k := clampIndex(int(in[0][0]))
		out[0][0] = table[k]`,
	} {
		m := analyze(t, filterHeader+`
var table [16]uint32

func clampIndex(k int) int { return k }

func build() *stream.FuncFilter {
	return stream.NewFuncFilter("guarded", 1, 1, 1, func(in, out [][]uint32) {
		`+src+`
	})
}
`, FilterMode)
		if got := codes(m); len(got) != 0 {
			t.Errorf("guarded variant should be clean, got %v\nsrc:\n%s", got, src)
		}
	}
}

func TestPushedDataIsTolerable(t *testing.T) {
	m := analyze(t, filterHeader+`
func build() *stream.FuncFilter {
	return stream.NewFuncFilter("scale", 2, 2, 1, func(in, out [][]uint32) {
		for i := 0; i < 2; i++ {
			v := stream.BitsF32(in[0][i]) * 0.5
			out[0][i] = stream.F32Bits(v)
		}
	})
}
`, FilterMode)
	if got := codes(m); len(got) != 0 {
		t.Fatalf("pure data path should be clean, got %v", got)
	}
	fm := filterByName(t, m, "scale")
	for _, v := range fm.Vars {
		switch v.Name {
		case "i":
			if v.Kind != ControlCritical {
				t.Errorf("i should be control-critical")
			}
		case "v":
			if v.Kind != DataTolerable || !v.PopTainted {
				t.Errorf("v should be pop-tainted data-tolerable, got kind=%v tainted=%v", v.KindName, v.PopTainted)
			}
		}
	}
	if fm.ControlFraction() <= 0 || fm.ControlFraction() >= 1 {
		t.Errorf("fraction should be strictly between 0 and 1, got %v", fm.ControlFraction())
	}
}

func TestKernelModeSliceParamTaint(t *testing.T) {
	m := analyze(t, `package kern

var lut [64]float64

// Index derived from frame content: finding.
func Bad(frame []int32, out []float64) {
	for i := 0; i < len(frame); i++ {
		out[i] = lut[frame[i]]
	}
}

// Loop bound from a scalar size parameter: structural, clean.
func Good(frame []float64, size int) float64 {
	acc := 0.0
	for i := 0; i < size; i++ {
		acc += frame[i]
	}
	return acc
}
`, KernelMode)
	var bad, good *FilterMap
	for _, f := range m.Filters {
		switch f.Name {
		case "kern.Bad":
			bad = f
		case "kern.Good":
			good = f
		}
	}
	if bad == nil || good == nil {
		t.Fatalf("missing filters: %+v", m.Filters)
	}
	if len(bad.Findings) != 1 || bad.Findings[0].Code != CodeIndex {
		t.Errorf("Bad: want one CM002, got %+v", bad.Findings)
	}
	if len(good.Findings) != 0 {
		t.Errorf("Good: scalar size param must not taint, got %+v", good.Findings)
	}
}

func TestFieldMutationOutsideWork(t *testing.T) {
	src := `package stream

type Counter struct {
	pos  int
	data []uint32
}

func (c *Counter) WorkBatch(in, out [][]uint32) {
	out[0][0] = c.data[c.pos]
	c.pos++
}

func (c *Counter) Reset() {
	c.pos = 0 // mutating a control-critical field outside WorkBatch/Init
}

func (c *Counter) Init() {
	c.pos = 0 // sanctioned
}

func (c *Counter) Reload(d []uint32) {
	c.data = d // data field: fine anywhere
}
`
	m := analyze(t, src, FilterMode)
	if got := codes(m); len(got) != 1 || got[0] != CodeFieldMut {
		t.Fatalf("want [CM003], got %v", got)
	}
	fi := m.Findings()[0]
	if !strings.Contains(fi.Message, "Counter.pos") || !strings.Contains(fi.Message, "Reset") {
		t.Errorf("message should name the field and method: %s", fi.Message)
	}
}

func TestSuppression(t *testing.T) {
	body := `k := int(in[0][0])
		out[0][0] = table[k]`
	mk := func(directive, placement string) string {
		src := filterHeader + `
var table [16]uint32

func build() *stream.FuncFilter {
	return stream.NewFuncFilter("s", 1, 1, 1, func(in, out [][]uint32) {
		` + body + `
	})
}
`
		switch placement {
		case "above":
			return strings.Replace(src, "out[0][0] = table[k]", directive+"\n\t\tout[0][0] = table[k]", 1)
		case "same":
			return strings.Replace(src, "out[0][0] = table[k]", "out[0][0] = table[k] "+directive, 1)
		case "file":
			return directive + "\n" + src
		}
		t.Fatalf("bad placement %q", placement)
		return ""
	}
	cases := []struct {
		name, directive, placement string
		suppressed                 bool
	}{
		{"line above, exact code", "//repolint:ignore CM002 bounded upstream", "above", true},
		{"same line, exact code", "//repolint:ignore CM002 bounded upstream", "same", true},
		{"file level, exact code", "//repolint:ignore CM002 whole file audited", "file", true},
		{"comma-separated codes", "//repolint:ignore CM001,CM002 audited", "above", true},
		{"bare directive suppresses all", "//repolint:ignore audited", "above", true},
		{"wrong code does not suppress", "//repolint:ignore CM003 nope", "above", false},
		{"unrelated line does not suppress", "//repolint:ignore CM002 nope", "file-comment-elsewhere", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var src string
			if tc.placement == "file-comment-elsewhere" {
				// Directive far from the finding, after the package clause.
				src = strings.Replace(mk("", "same"), "var table",
					tc.directive+"\nvar table", 1)
			} else {
				src = mk(tc.directive, tc.placement)
			}
			m := analyze(t, src, FilterMode)
			got := len(m.Findings())
			if tc.suppressed && got != 0 {
				t.Errorf("want suppressed, got %v", m.Findings())
			}
			if !tc.suppressed && got == 0 {
				t.Errorf("want finding to survive, got none")
			}
		})
	}
}

func TestFractionFor(t *testing.T) {
	m := &ProtectionMap{Filters: []*FilterMap{
		{Name: "chan", Stmts: 10, ControlStmts: 5},
		{Name: "stream.Source", Stmts: 10, ControlStmts: 8},
		{Name: "F1-dequant", Stmts: 10, ControlStmts: 2},
	}}
	if f, ok := m.FractionFor("stream.Source"); !ok || f != 0.8 {
		t.Errorf("exact: got %v %v", f, ok)
	}
	if f, ok := m.FractionFor("chan3"); !ok || f != 0.5 {
		t.Errorf("verb-stripped prefix: got %v %v", f, ok)
	}
	if _, ok := m.FractionFor("nonexistent"); ok {
		t.Errorf("unknown name should miss")
	}
}

func TestSprintfFilterNames(t *testing.T) {
	m := analyze(t, filterHeader+`
import "fmt"

func build(ch int) *stream.FuncFilter {
	return stream.NewFuncFilter(fmt.Sprintf("chan%d", ch), 1, 1, 1, func(in, out [][]uint32) {
		copy(out[0], in[0])
	})
}
`, FilterMode)
	filterByName(t, m, "chan")
}

// A filter's kernel is the first function literal its constructor takes:
// an ABFT filter's fused kernel is analyzed under the filter's name, its
// checksum function is not analyzed, and neither is the enclosing
// builder.
func TestConstructorKernelLiterals(t *testing.T) {
	m := analyze(t, filterHeader+`
func build() *stream.ABFTFuncFilter {
	return stream.NewABFTFilter("fused", 1, 1, 1, func(in, out [][]uint32) float64 {
		v := in[0][0]
		out[0][0] = v
		return float64(v)
	}, func(out [][]uint32) float64 { return stream.ChecksumU32(out[0]) })
}
`, FilterMode)
	if len(m.Filters) != 1 {
		t.Fatalf("analyzed %d functions, want only the fused kernel", len(m.Filters))
	}
	fm := filterByName(t, m, "fused")
	if fm.Line != 7 {
		t.Errorf("fused kernel analyzed at line %d, want the literal on line 7", fm.Line)
	}
	for _, v := range fm.Vars {
		if v.Name == "v" && !v.PopTainted {
			t.Error("v reads the input buffer but is not pop-tainted")
		}
	}
}

// TestAnalyzeRepo runs the analysis over the repo's own sources: the 7
// benchmarks' filters must be discovered and carry no unsuppressed
// findings (the acceptance bar `critmap -all` enforces in CI).
func TestAnalyzeRepo(t *testing.T) {
	root, err := srcload.FindRoot()
	if err != nil {
		t.Fatalf("FindRoot: %v", err)
	}
	p, err := srcload.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := AnalyzeRepo(p)
	if err != nil {
		t.Fatalf("AnalyzeRepo: %v", err)
	}
	if len(m.Filters) < 30 {
		t.Fatalf("suspiciously few functions analyzed: %d", len(m.Filters))
	}
	if fs := m.Findings(); len(fs) != 0 {
		t.Errorf("repo sources must be clean or explicitly ignored; got %v", fs)
	}
	// The builtin source advances a position counter: control-critical.
	f, ok := m.FractionFor("stream.Source")
	if !ok || f <= 0 {
		t.Errorf("stream.Source fraction = %v ok=%v, want > 0", f, ok)
	}
	if mean := m.MeanFraction(); mean <= 0 || mean >= 1 {
		t.Errorf("mean fraction out of range: %v", mean)
	}
}

// TestAnalyzeRepoMissingSourceDir: a listed source directory that does not
// exist is an analysis error, not a silent skip that would drop its whole
// CM analysis.
func TestAnalyzeRepoMissingSourceDir(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fake.example/m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range RepoSources() {
		if src.Dir == "internal/dsp" {
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(src.Dir))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := srcload.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeRepo(p); err == nil || !strings.Contains(err.Error(), "dsp") {
		t.Fatalf("AnalyzeRepo without internal/dsp: err = %v, want an error naming it", err)
	}
}
