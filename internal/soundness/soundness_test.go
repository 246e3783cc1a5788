package soundness

import (
	"strings"
	"testing"

	"commguard/internal/check"
	"commguard/internal/crit"
	"commguard/internal/stream"
)

const filterHeader = "package apps\n\nimport \"commguard/internal/stream\"\n\n"

// Edge-verdict fixtures: each triggers exactly its intended code when
// composed with an unguarded chain graph whose middle filter is named
// "apps.work" (the WorkBatch method of type work).
const (
	// srcCS001: popped data becomes a loop bound — a proven critical flow.
	srcCS001 = filterHeader + `
type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	n := int(in[0][0])
	for i := 0; i < n; i++ {
		out[0][0] = uint32(i)
	}
}
`
	// srcCS002: popped data escapes into a package-level variable.
	srcCS002 = filterHeader + `
var last uint32

type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	last = v
	out[0][0] = v
}
`
	// srcCS003: popped data routed through reflection.
	srcCS003 = `package apps

import (
	"reflect"

	"commguard/internal/stream"
)

type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	_ = reflect.ValueOf(v)
	out[0][0] = v
}
`
	// srcBoth: a critical flow AND an escape, for precedence tests.
	srcBoth = filterHeader + `
var last int

type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	n := int(in[0][0])
	last = n
	for i := 0; i < n; i++ {
		out[0][0] = uint32(i)
	}
}
`
)

// chainGraph builds src -> work -> sink with the middle filter under the
// given runtime name.
func chainGraph(t *testing.T, filterName string) *stream.Graph {
	t.Helper()
	g := stream.NewGraph()
	_, err := g.Chain(
		stream.NewSource("src", 1, make([]uint32, 64)),
		stream.NewFuncFilter(filterName, 1, 1, 1, func(in, out [][]uint32) { copy(out[0], in[0]) }),
		stream.NewSink("sink", 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func factFrom(t *testing.T, src string, guarded bool) *Fact {
	t.Helper()
	m, err := crit.AnalyzeSource("fixture.go", src, crit.FilterMode)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fact{Crit: m}
	if guarded {
		f.Guarded = func(*stream.Edge) bool { return true }
	}
	return f
}

// csFindings runs the full check registry and keeps the CS00x results.
func csFindings(g *stream.Graph, fact *Fact) []check.Diagnostic {
	report := check.Run(g, check.Config{Facts: map[string]any{FactKey: fact}})
	var out []check.Diagnostic
	for _, d := range report.Diagnostics {
		if strings.HasPrefix(d.Code, "CS") {
			out = append(out, d)
		}
	}
	return out
}

func TestCS001FiresOnUnprotectedCriticalFlow(t *testing.T) {
	g := chainGraph(t, "apps.work")
	ds := csFindings(g, factFrom(t, srcCS001, false))
	if len(ds) != 1 || ds[0].Code != "CS001" {
		t.Fatalf("want exactly one CS001, got %v", ds)
	}
	d := ds[0]
	if d.Severity != check.Error {
		t.Errorf("CS001 severity = %v, want error", d.Severity)
	}
	if d.Edge == nil || d.Edge.Dst.F.Name() != "apps.work" {
		t.Errorf("CS001 not anchored to the consumer edge: %+v", d)
	}
	if !strings.Contains(d.Message, "taint path") {
		t.Errorf("CS001 message lacks the taint path: %q", d.Message)
	}
}

func TestCS001ProvenSafeWhenGuarded(t *testing.T) {
	g := chainGraph(t, "apps.work")
	if ds := csFindings(g, factFrom(t, srcCS001, true)); len(ds) != 0 {
		t.Fatalf("guarded critical flow should be proven safe, got %v", ds)
	}
}

func TestCS002FiresOnEscape(t *testing.T) {
	g := chainGraph(t, "apps.work")
	for _, guarded := range []bool{false, true} {
		ds := csFindings(g, factFrom(t, srcCS002, guarded))
		if len(ds) != 1 || ds[0].Code != "CS002" {
			t.Fatalf("guarded=%v: want exactly one CS002, got %v", guarded, ds)
		}
		if ds[0].Severity != check.Warning {
			t.Errorf("CS002 severity = %v, want warning", ds[0].Severity)
		}
		if !strings.Contains(ds[0].Message, "global last") {
			t.Errorf("CS002 message lacks the sink: %q", ds[0].Message)
		}
	}
}

func TestCS003FiresOnOpaqueCall(t *testing.T) {
	g := chainGraph(t, "apps.work")
	ds := csFindings(g, factFrom(t, srcCS003, false))
	if len(ds) != 1 || ds[0].Code != "CS003" {
		t.Fatalf("want exactly one CS003, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "reflect.ValueOf") {
		t.Errorf("CS003 message lacks the callee: %q", ds[0].Message)
	}
}

func TestNoFactDisablesEdgeRules(t *testing.T) {
	g := chainGraph(t, "apps.work")
	report := check.Run(g, check.DefaultConfig())
	for _, d := range report.Diagnostics {
		if strings.HasPrefix(d.Code, "CS") {
			t.Fatalf("CS rule fired without a fact: %v", d)
		}
	}
}

func TestVerdictPrecedence(t *testing.T) {
	m, err := crit.AnalyzeSource("fixture.go", srcBoth, crit.FilterMode)
	if err != nil {
		t.Fatal(err)
	}
	fm := m.FilterFor("apps.work")
	if fm == nil {
		t.Fatal("fixture filter not analyzed")
	}
	if !fm.ConsumesCritically() || len(fm.Escapes) == 0 {
		t.Fatalf("fixture should have both a critical flow and an escape: %+v", fm)
	}
	if v := VerdictFor(fm, false); v != VerdictViolation {
		t.Errorf("unguarded verdict = %v, want violation", v)
	}
	if v := VerdictFor(fm, true); v != VerdictEscape {
		t.Errorf("guarded verdict = %v, want uncertain-escape", v)
	}
	if VerdictFor(nil, false) != VerdictSafe {
		t.Error("unanalyzed consumer must be safe")
	}
}

func TestClassifyCoversEveryEdge(t *testing.T) {
	g := chainGraph(t, "apps.work")
	evs := Classify(g, factFrom(t, srcCS001, false))
	if len(evs) != len(g.Edges) {
		t.Fatalf("classified %d edges, graph has %d", len(evs), len(g.Edges))
	}
	if evs[0].Verdict != VerdictViolation {
		t.Errorf("src->work verdict = %v, want violation", evs[0].Verdict)
	}
	if evs[1].Verdict != VerdictSafe || evs[1].Filter != nil {
		t.Errorf("work->sink (unanalyzed consumer) verdict = %v, want safe", evs[1].Verdict)
	}
}

func TestVerdictCodeRoundTrip(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictSafe: "", VerdictViolation: "CS001",
		VerdictEscape: "CS002", VerdictOpaque: "CS003",
	} {
		if got := v.Code(); got != want {
			t.Errorf("%v.Code() = %q, want %q", v, got, want)
		}
	}
}
