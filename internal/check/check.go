// Package check is a static verification pass for stream graphs and their
// CommGuard/queue configuration. CommGuard's frame realignment (§4.2, §4.4)
// relies on properties that are fully determined by the graph's static
// push/pop rates, the steady-state schedule, and the per-edge queue and
// frame-domain configuration — yet historically each of them was only
// discovered at runtime, as a deadlock, a panic, or a silently wrong
// realignment. This package evaluates those properties ahead of time and
// returns structured findings.
//
// Rules are registered in a package registry (see Register) so future
// analyses slot in without touching the driver. The initial rule set:
//
//	CG001  structural defects: dangling ports, disconnected subgraphs,
//	       self-loops, cycles, empty graphs
//	CG002  rate-balance inconsistency, reported for all offending edges
//	       at once (stream.Solve stops at the first)
//	CG003  per-edge queue capacity below the per-firing burst
//	CG004  frame-domain scale disagreement between the two endpoints of
//	       an edge
//	CG005  32-bit frame-counter overflow horizon within the configured
//	       run length
//	CG006  schedule-multiplicity blowup: steady-state frames that cannot
//	       be resident in the configured queue geometry
package check

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"commguard/internal/queue"
	"commguard/internal/stream"
)

// Severity ranks a finding. Errors are guaranteed runtime failures
// (unschedulable graphs, certain deadlock); warnings are configurations
// that run but degrade (forced overwrites, unresident frames, counter
// horizons).
type Severity int

const (
	// Warning marks a finding the runtime survives, degraded.
	Warning Severity = iota
	// Error marks a finding that is a guaranteed runtime failure.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one structured finding.
type Diagnostic struct {
	// Code is the rule identifier (CG001...).
	Code string
	// Severity ranks the finding.
	Severity Severity
	// Node anchors node-scoped findings (nil otherwise).
	Node *stream.Node
	// Edge anchors edge-scoped findings (nil otherwise).
	Edge *stream.Edge
	// File/Line/Col anchor source-scoped findings from ScopeRepo rules
	// (File empty otherwise).
	File string
	Line int
	Col  int
	// Symbol names the source construct a ScopeRepo finding is about
	// (e.g. the qualified function containing it).
	Symbol string
	// Message states the defect.
	Message string
	// Fix suggests a remediation (may be empty).
	Fix string
}

// String renders one finding as "CODE severity [location]: message (fix: ...)".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", d.Code, d.Severity)
	switch {
	case d.Edge != nil:
		fmt.Fprintf(&b, " edge %d (%s -> %s)", d.Edge.ID, d.Edge.Src.Name(), d.Edge.Dst.Name())
	case d.Node != nil:
		fmt.Fprintf(&b, " node %s", d.Node.Name())
	case d.File != "":
		fmt.Fprintf(&b, " %s:%d:%d", d.File, d.Line, d.Col)
		if d.Symbol != "" {
			fmt.Fprintf(&b, " (%s)", d.Symbol)
		}
	}
	fmt.Fprintf(&b, ": %s", d.Message)
	if d.Fix != "" {
		fmt.Fprintf(&b, " (fix: %s)", d.Fix)
	}
	return b.String()
}

// Config is the execution configuration the graph is checked against: the
// same knobs an engine run would use.
type Config struct {
	// Queue is the queue geometry applied to every edge (the Transport
	// configuration). Zero value falls back to queue.DefaultConfig().
	Queue queue.Config
	// QueueFor, when non-nil, overrides Queue per edge.
	QueueFor func(e *stream.Edge) queue.Config
	// ScaleFor mirrors commguard.Transport.ScaleFor: the frame-domain
	// scale of each edge, applied to both endpoints. nil = scale 1.
	ScaleFor func(e *stream.Edge) int
	// ProducerScaleFor/ConsumerScaleFor override ScaleFor per endpoint,
	// for hand-wired HeaderInserter/AlignmentManager setups. When they
	// disagree, CG004 fires.
	ProducerScaleFor func(e *stream.Edge) int
	ConsumerScaleFor func(e *stream.Edge) int
	// Iterations is the configured run length in steady-state iterations;
	// 0 derives it from the source tapes like the engine does.
	Iterations int
	// FrameScale is the PPU-level frame enlargement (EngineConfig.FrameScale).
	FrameScale int
	// Facts carries cross-package analysis results keyed by producer
	// (e.g. "crit" -> the repo's crit.ProtectionMap). Rules registered by
	// other packages type-assert what they need and skip themselves when
	// their fact is absent, so check keeps zero dependencies on the
	// producing analyses.
	Facts map[string]any
}

// DefaultConfig checks against the engine defaults.
func DefaultConfig() Config {
	return Config{Queue: queue.DefaultConfig(), FrameScale: 1}
}

// Context is the evaluated input handed to each rule: the graph, the
// normalized configuration, and lazily computed shared results.
type Context struct {
	Graph *stream.Graph
	Cfg   Config

	schedOnce sync.Once
	sched     *stream.Schedule
	schedErr  error
}

// Schedule solves (once) and returns the steady-state schedule, or the
// stream.Solve error for unschedulable graphs. Rules that need the schedule
// skip themselves on error; CG001/CG002/CG006 own reporting the cause.
func (c *Context) Schedule() (*stream.Schedule, error) {
	c.schedOnce.Do(func() {
		c.sched, c.schedErr = stream.Solve(c.Graph)
	})
	return c.sched, c.schedErr
}

// Fact returns the named cross-package analysis result, or nil when the
// caller supplied none.
func (c *Context) Fact(name string) any {
	if c.Cfg.Facts == nil {
		return nil
	}
	return c.Cfg.Facts[name]
}

// QueueConfigFor resolves the queue geometry of one edge.
func (c *Context) QueueConfigFor(e *stream.Edge) queue.Config {
	if c.Cfg.QueueFor != nil {
		return c.Cfg.QueueFor(e)
	}
	return c.Cfg.Queue
}

// ScalesFor resolves the frame-domain scale of each endpoint of an edge.
func (c *Context) ScalesFor(e *stream.Edge) (prod, cons int) {
	prod, cons = 1, 1
	if c.Cfg.ScaleFor != nil {
		s := c.Cfg.ScaleFor(e)
		prod, cons = s, s
	}
	if c.Cfg.ProducerScaleFor != nil {
		prod = c.Cfg.ProducerScaleFor(e)
	}
	if c.Cfg.ConsumerScaleFor != nil {
		cons = c.Cfg.ConsumerScaleFor(e)
	}
	return prod, cons
}

// RunLength resolves the run length in steady-state iterations: the
// configured Iterations, or the engine's tape-derived count. ok is false
// when neither is available (no schedule, or no sufficient source tape).
func (c *Context) RunLength() (iterations int, ok bool) {
	if c.Cfg.Iterations > 0 {
		return c.Cfg.Iterations, true
	}
	sched, err := c.Schedule()
	if err != nil {
		return 0, false
	}
	best := -1
	for _, n := range c.Graph.Sources() {
		src, isSrc := n.F.(*stream.Source)
		if !isSrc {
			continue
		}
		perIter := sched.Multiplicity[n.ID] * src.PushRates()[0]
		if perIter == 0 {
			continue
		}
		iters := src.Remaining() / perIter
		if best < 0 || iters < best {
			best = iters
		}
	}
	if best <= 0 {
		return 0, false
	}
	return best, true
}

// Scope says what a rule runs against.
type Scope int

const (
	// ScopeGraph rules evaluate one stream graph under one configuration
	// (the zero value; every pre-existing rule).
	ScopeGraph Scope = iota
	// ScopeRepo rules evaluate repository source, independent of any
	// graph; Run skips them and RunRepo runs only them, with a nil Graph
	// in the context. Their findings anchor on File/Line/Col.
	ScopeRepo
)

// Rule is one registered analysis.
type Rule struct {
	// Code is the stable diagnostic identifier (CG001...).
	Code string
	// Name is a short slug for listings.
	Name string
	// Doc is a one-line description of what the rule verifies.
	Doc string
	// Scope says whether the rule checks a stream graph (default) or
	// repository source.
	Scope Scope
	// Check evaluates the rule. Returned diagnostics should carry Code;
	// the driver stamps it when left empty.
	Check func(*Context) []Diagnostic
}

var (
	regMu    sync.Mutex
	registry []Rule
)

// Register adds a rule to the registry. It panics on a duplicate or empty
// code so conflicts surface at init time.
func Register(r Rule) {
	if r.Code == "" || r.Check == nil {
		panic("check: Register needs a code and a check function")
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, have := range registry {
		if have.Code == r.Code {
			panic("check: duplicate rule code " + r.Code)
		}
	}
	registry = append(registry, r)
	sort.Slice(registry, func(i, j int) bool { return registry[i].Code < registry[j].Code })
}

// Rules returns the registered rules in code order.
func Rules() []Rule {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]Rule(nil), registry...)
}

// Report is the result of one checker run.
type Report struct {
	Diagnostics []Diagnostic
}

// Errors returns the error-severity findings.
func (r *Report) Errors() []Diagnostic { return r.filter(Error) }

// Warnings returns the warning-severity findings.
func (r *Report) Warnings() []Diagnostic { return r.filter(Warning) }

func (r *Report) filter(s Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any finding is error severity.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// Clean reports whether the run produced no findings at all.
func (r *Report) Clean() bool { return len(r.Diagnostics) == 0 }

// String renders the findings one per line; "ok" when clean.
func (r *Report) String() string {
	if r.Clean() {
		return "ok: no findings"
	}
	lines := make([]string, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// Run evaluates every registered graph-scoped rule against the graph
// under the given configuration.
func Run(g *stream.Graph, cfg Config) *Report {
	if cfg.Queue == (queue.Config{}) {
		cfg.Queue = queue.DefaultConfig()
	}
	if cfg.FrameScale < 1 {
		cfg.FrameScale = 1
	}
	ctx := &Context{Graph: g, Cfg: cfg}
	return run(ctx, ScopeGraph)
}

// RunRepo evaluates every registered repo-scoped rule. The context carries
// a nil Graph; rules read their inputs from Config.Facts (e.g. the hotpath
// analysis result).
func RunRepo(cfg Config) *Report {
	ctx := &Context{Cfg: cfg}
	return run(ctx, ScopeRepo)
}

func run(ctx *Context, scope Scope) *Report {
	report := &Report{}
	for _, rule := range Rules() {
		if rule.Scope != scope {
			continue
		}
		for _, d := range rule.Check(ctx) {
			if d.Code == "" {
				d.Code = rule.Code
			}
			report.Diagnostics = append(report.Diagnostics, d)
		}
	}
	return report
}
