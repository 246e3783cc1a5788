package check

import (
	"strings"
	"testing"
	"time"

	"commguard/internal/apps"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// codes extracts the distinct diagnostic codes of a report.
func codes(r *Report) map[string]int {
	m := map[string]int{}
	for _, d := range r.Diagnostics {
		m[d.Code]++
	}
	return m
}

func TestRegistryHasInitialRules(t *testing.T) {
	rules := Rules()
	want := []string{"CG001", "CG002", "CG003", "CG004", "CG005", "CG006"}
	if len(rules) < len(want) {
		t.Fatalf("registry has %d rules, want at least %d", len(rules), len(want))
	}
	have := map[string]bool{}
	for i, r := range rules {
		if i > 0 && rules[i-1].Code >= r.Code {
			t.Errorf("rules not sorted: %s before %s", rules[i-1].Code, r.Code)
		}
		have[r.Code] = true
		if r.Doc == "" || r.Name == "" {
			t.Errorf("rule %s missing name/doc", r.Code)
		}
	}
	for _, c := range want {
		if !have[c] {
			t.Errorf("missing rule %s", c)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate code registered without panic")
		}
	}()
	Register(Rule{Code: "CG001", Check: func(*Context) []Diagnostic { return nil }})
}

// CG001 must report every structural defect at once: here two dangling
// ports and a disconnected pair.
func TestCG001DanglingAndDisconnected(t *testing.T) {
	g := stream.NewGraph()
	g.Add(stream.NewSource("lonely-src", 1, nil)) // dangling output
	g.Add(stream.NewSink("lonely-sink", 1))       // dangling input
	if _, err := g.Chain(stream.NewSource("s", 1, nil), stream.NewSink("k", 1)); err != nil {
		t.Fatal(err)
	}
	r := Run(g, DefaultConfig())
	c := codes(r)
	if c["CG001"] < 3 { // 2 ports + at least 1 disconnected component
		t.Fatalf("CG001 fired %d times, want >= 3:\n%s", c["CG001"], r)
	}
	if !r.HasErrors() {
		t.Error("structural defects must be errors")
	}
}

func TestCG001EmptyGraph(t *testing.T) {
	r := Run(stream.NewGraph(), DefaultConfig())
	if codes(r)["CG001"] == 0 || !r.HasErrors() {
		t.Fatalf("empty graph not flagged:\n%s", r)
	}
}

func TestCG001Cycle(t *testing.T) {
	g := stream.NewGraph()
	a := g.Add(stream.NewFuncFilter("a", 1, 1, 0, nil))
	b := g.Add(stream.NewFuncFilter("b", 1, 1, 0, nil))
	if err := g.Connect(a, 0, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(b, 0, a, 0); err != nil {
		t.Fatal(err)
	}
	r := Run(g, DefaultConfig())
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == "CG001" && strings.Contains(d.Message, "cycle") {
			found = true
			if d.Severity != Error {
				t.Error("cycle must be an error")
			}
		}
	}
	if !found {
		t.Fatalf("cycle not flagged:\n%s", r)
	}
}

// CG002 must report all offending edges at once, where stream.Solve stops
// at the first. The duplicate splitter rejoining with mismatched weights
// creates two independent inconsistencies.
func TestCG002ReportsAllOffendingEdges(t *testing.T) {
	g := stream.NewGraph()
	src := g.Add(stream.NewSource("src", 1, nil))
	split := g.Add(stream.NewDuplicateSplitter("dup", 1, 3))
	join := g.Add(stream.NewRoundRobinJoiner("join", 3, 2, 1))
	sink := g.Add(stream.NewSink("sink", 6))
	if err := g.Connect(src, 0, split, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.SplitJoin(split, join, []stream.Filter{}, []stream.Filter{}, []stream.Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(join, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Solve(g); err == nil {
		t.Fatal("fixture unexpectedly schedulable")
	}
	r := Run(g, DefaultConfig())
	var edges []int
	for _, d := range r.Diagnostics {
		if d.Code == "CG002" {
			if d.Edge == nil {
				t.Fatal("CG002 diagnostic without edge")
			}
			if d.Severity != Error {
				t.Error("rate inconsistency must be an error")
			}
			edges = append(edges, d.Edge.ID)
		}
	}
	if len(edges) < 2 {
		t.Fatalf("CG002 flagged edges %v, want at least 2 independent conflicts:\n%s", edges, r)
	}
}

func TestCG002ZeroRate(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(stream.NewSource("src", 0, nil), stream.NewSink("sink", 1)); err != nil {
		t.Fatal(err)
	}
	r := Run(g, DefaultConfig())
	if codes(r)["CG002"] == 0 || !r.HasErrors() {
		t.Fatalf("zero-rate edge not flagged:\n%s", r)
	}
}

// CG003: a queue too small for one firing's burst. Without a timeout it is
// an error (a stall can never resolve); with one, a warning.
func TestCG003CapacityBelowBurst(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(stream.NewSource("src", 64, nil), stream.NewSink("sink", 64)); err != nil {
		t.Fatal(err)
	}
	small := queue.Config{WorkingSets: 2, WorkingSetUnits: 4} // capacity 8 < burst 64, no timeout
	r := Run(g, Config{Queue: small})
	var got *Diagnostic
	for i, d := range r.Diagnostics {
		if d.Code == "CG003" {
			got = &r.Diagnostics[i]
		}
	}
	if got == nil {
		t.Fatalf("undersized blocking queue not flagged:\n%s", r)
	}
	if got.Severity != Error {
		t.Errorf("no-timeout undersized queue severity = %v, want error", got.Severity)
	}

	small.Timeout = 50 * time.Millisecond
	r = Run(g, Config{Queue: small})
	got = nil
	for i, d := range r.Diagnostics {
		if d.Code == "CG003" {
			got = &r.Diagnostics[i]
		}
	}
	if got == nil || got.Severity != Warning {
		t.Fatalf("undersized timed-out queue should warn:\n%s", r)
	}
}

func TestCG003InvalidQueueConfig(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(stream.NewSource("src", 1, nil), stream.NewSink("sink", 1)); err != nil {
		t.Fatal(err)
	}
	r := Run(g, Config{Queue: queue.Config{WorkingSets: 1, WorkingSetUnits: 0}})
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == "CG003" && d.Severity == Error {
			found = true
		}
	}
	if !found {
		t.Fatalf("invalid queue config not flagged:\n%s", r)
	}
}

// CG004: hand-wired endpoints with different frame-domain scales.
func TestCG004ScaleMismatch(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(stream.NewSource("src", 4, nil), stream.NewSink("sink", 4)); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ProducerScaleFor = func(e *stream.Edge) int { return 4 }
	cfg.ConsumerScaleFor = func(e *stream.Edge) int { return 8 }
	r := Run(g, cfg)
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == "CG004" {
			found = true
			if d.Severity != Error {
				t.Error("scale mismatch must be an error")
			}
			if d.Edge == nil {
				t.Error("CG004 diagnostic without edge")
			}
		}
	}
	if !found {
		t.Fatalf("scale mismatch not flagged:\n%s", r)
	}

	// The safe API (one scale per edge) stays clean.
	cfg = DefaultConfig()
	cfg.ScaleFor = func(e *stream.Edge) int { return 4 }
	if r := Run(g, cfg); codes(r)["CG004"] != 0 {
		t.Errorf("matched scales flagged:\n%s", r)
	}
}

// CG005: a run long enough that the 32-bit domain frame counter reaches the
// end-of-computation alias.
func TestCG005CounterHorizon(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(stream.NewSource("src", 1, nil), stream.NewSink("sink", 1)); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Iterations = 1 << 33
	r := Run(g, cfg)
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == "CG005" {
			found = true
			if d.Severity != Warning {
				t.Error("counter horizon should warn, not error")
			}
		}
	}
	if !found {
		t.Fatalf("counter horizon not flagged at 2^33 iterations:\n%s", r)
	}

	// Enlarging the frame domain pushes the horizon out again.
	cfg.ScaleFor = func(e *stream.Edge) int { return 4 }
	if r := Run(g, cfg); codes(r)["CG005"] != 0 {
		t.Errorf("scale-4 domain still flagged at 2^33 iterations:\n%s", r)
	}
}

// CG006: multiplicity blowup past 2^31 is an error (Solve refuses it);
// frames that cannot be resident in the queue are warnings.
func TestCG006MultiplicityBlowup(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(
		stream.NewSource("src", 1<<20, nil),
		stream.NewFuncFilter("f1", 3, 1<<20, 0, nil),
		stream.NewFuncFilter("f2", 7, 1<<20, 0, nil),
		stream.NewFuncFilter("f3", 11, 1<<20, 0, nil),
		stream.NewSink("sink", 13),
	); err != nil {
		t.Fatal(err)
	}
	r := Run(g, DefaultConfig())
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == "CG006" {
			found = true
			if d.Severity != Error {
				t.Error("multiplicity range blowup must be an error")
			}
			if d.Node == nil {
				t.Error("CG006 range diagnostic should carry the node")
			}
		}
	}
	if !found {
		t.Fatalf("multiplicity blowup not flagged:\n%s", r)
	}
}

func TestCG006FrameExceedsCapacity(t *testing.T) {
	g := stream.NewGraph()
	// 192 push vs 15360 pop (the paper's F6/F7 rates): one frame is 15360
	// items, far beyond the default 2048-unit queue.
	if _, err := g.Chain(stream.NewSource("F6", 192, nil), stream.NewSink("F7", 15360)); err != nil {
		t.Fatal(err)
	}
	r := Run(g, DefaultConfig())
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == "CG006" {
			found = true
			if d.Severity != Warning {
				t.Error("unresident frame should warn (parallel runs survive on backpressure)")
			}
		}
	}
	if !found {
		t.Fatalf("unresident frame not flagged:\n%s", r)
	}
	if r.HasErrors() {
		t.Errorf("F6/F7 pipeline should have no errors:\n%s", r)
	}
}

func TestCleanGraphNoFindings(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(
		stream.NewSource("src", 4, make([]uint32, 64)),
		stream.NewIdentity("id", 4),
		stream.NewSink("sink", 4),
	); err != nil {
		t.Fatal(err)
	}
	r := Run(g, DefaultConfig())
	if !r.Clean() {
		t.Fatalf("clean pipeline has findings:\n%s", r)
	}
	if got := r.String(); !strings.Contains(got, "ok") {
		t.Errorf("clean report renders %q", got)
	}
}

// Every built-in benchmark must verify with zero errors under the default
// engine configuration — the CI gate commguard-vet also enforces.
func TestAllBuiltinBenchmarksCheckClean(t *testing.T) {
	builders := apps.AllBuiltin()
	if len(builders) != 7 {
		t.Fatalf("expected 7 built-in benchmarks, got %d", len(builders))
	}
	for _, b := range builders {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			byName, ok := apps.ByName(b.Name)
			if !ok {
				t.Fatalf("ByName(%q) failed", b.Name)
			}
			inst, err := byName.New()
			if err != nil {
				t.Fatal(err)
			}
			r := Run(inst.Graph, DefaultConfig())
			if r.HasErrors() {
				t.Errorf("%s has checker errors:\n%s", b.Name, r)
			}
		})
	}
}
