// Package sim composes the substrates into the paper's experimental
// platform (§6): a 1-thread-per-core multiprocessor running a benchmark
// stream graph under one of four protection configurations (Fig. 3):
//
//	ErrorFree     — no fault injection (Fig. 3a)
//	SoftwareQueue — PPU cores, unprotected software queues (Fig. 3b)
//	ReliableQueue — PPU cores, ECC-protected queues, no CommGuard (Fig. 3c)
//	CommGuard     — PPU cores, reliable QM + HI/AM alignment (Fig. 3d)
//	ABFT          — PPU cores, reliable QM + checksummed batch kernels
//	                (algorithm-based fault tolerance fused into the
//	                filter compute loops; no alignment hardware)
//
// and with a per-core error injector at a configurable MTBE, independent
// RNG per core, exactly as the paper's Simics setup.
package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"commguard/internal/apps"
	"commguard/internal/commguard"
	"commguard/internal/fault"
	"commguard/internal/obs"
	"commguard/internal/obs/hist"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// Protection selects the platform configuration.
type Protection int

const (
	// ErrorFree disables fault injection entirely (Fig. 3a).
	ErrorFree Protection = iota
	// SoftwareQueue runs error-prone cores over plain software queues
	// whose management state is corruptible (Fig. 3b).
	SoftwareQueue
	// ReliableQueue protects queue pointers with ECC but performs no
	// alignment checking (Fig. 3c).
	ReliableQueue
	// CommGuard adds the Header Inserter / Alignment Manager modules on
	// top of the reliable Queue Manager (Fig. 3d).
	CommGuard
	// ABFT runs the reliable Queue Manager (no HI/AM) with checksummed
	// batch kernels (stream.EngineConfig.ABFT): filters that implement
	// stream.ABFTKernel fuse an output checksum into their compute loop
	// and recompute the firing from the intact input buffer on a
	// mismatch. A third point on the quality-vs-overhead curve: cheaper
	// than CommGuard, but blind to input corruption and to control-flow
	// slips that CommGuard's alignment headers catch.
	ABFT
)

func (p Protection) String() string {
	switch p {
	case ErrorFree:
		return "error-free"
	case SoftwareQueue:
		return "software-queue"
	case ReliableQueue:
		return "reliable-queue"
	case CommGuard:
		return "commguard"
	case ABFT:
		return "abft"
	}
	return "invalid"
}

// Config parameterizes one run.
type Config struct {
	Protection Protection
	// MTBE is the per-core mean time between errors, in modeled committed
	// instructions (the x-axis of Figs. 8-11). Ignored for ErrorFree.
	MTBE float64
	// Seed drives every per-core RNG (the paper runs 5 seeds per point).
	Seed int64
	// FrameScale enlarges frames by this factor (1, 2, 4, 8 in the paper).
	FrameScale int
	// Coder selects the word-sized ECC backend protecting headers and
	// shared pointers (ecc.ParseCoder spec; empty = the paper's Hamming
	// SEC-DED). Omitted from serialization when empty so pre-existing
	// obs.ConfigHash values are unchanged.
	Coder string `json:",omitempty"`
	// Queue overrides the queue geometry; zero value uses defaults tuned
	// per protection level.
	Queue queue.Config
	// Model overrides the fault manifestation weights (nil = defaults).
	Model *fault.Model
	// CritFractions maps filter names to their control-critical statement
	// fraction (crit.ProtectionMap.Fractions()). When non-empty, each
	// node's injector re-weights the manifestation model with
	// fault.CriticalityWeighted so filters whose code is mostly control
	// state draw proportionally more control-class errors. Lookup follows
	// crit's naming: exact filter name, longest analyzed-name prefix
	// (Sprintf-built names are stored verb-stripped), then the filter's
	// "pkg.Type" for builtin WorkBatch methods. Unmatched nodes keep the base
	// model.
	CritFractions map[string]float64
	// Trace enables the internal/obs event tracer (Result.Trace) at
	// obs.DefaultEventsPerCore records per core unless TraceEvents picks
	// another capacity. Its KindFault events are the run's applied-error
	// timeline.
	Trace bool
	// TraceEvents also enables the event tracer: > 0 sets the per-core
	// ring capacity, < 0 uses obs.DefaultEventsPerCore. With both fields
	// zero (and no armed Flight) tracing is off: no rings are allocated
	// and every emit site is a single nil branch.
	TraceEvents int
	// Health enables the runtime-health histogram registry: queue wait and
	// slow-path funnel latencies, per-filter firing durations, and
	// fault→detection latency (wall-clock and items-consumed) for the
	// protection scheme in play. Recording is zero-alloc single-writer
	// sharded (internal/obs/hist); merged summaries land in Result.Health.
	Health bool
	// Flight, when non-nil with at least one trigger armed, runs the run
	// under an anomaly-triggered flight recorder: the event tracer is
	// forced on (rings run continuously), and if a trigger fires — PPU
	// watchdog refusal, quality below floor, slow-path rate spike, fault
	// storm, or a cancelled (hung) run — Result.WriteArtifacts writes the
	// trace pair and the snapshot, whose "flight" section names the
	// triggers, at Flight.Path (Result.FlightDumps). Excluded from
	// serialization (the artifact path is process-local) so
	// obs.ConfigHash stays process-independent.
	Flight *obs.FlightOptions `json:"-"`
	// Sequential executes the graph on a single goroutine following the
	// static schedule: error-prone runs become bit-reproducible (the
	// concurrent engine's realignment details depend on goroutine
	// interleaving). Queues are sized up automatically to hold one frame.
	// Under faults it is not the concurrent engine made deterministic: a
	// pop on an empty queue times out at once and the AM pads it, so
	// timeouts, padded items and quality can differ from a concurrent run
	// (see stream.Engine.RunSequential).
	Sequential bool
	// Cancel, when non-nil, aborts the run when closed: the signal reaches
	// both the engine's iteration loops and every queue's blocking
	// push/pop waits, so a wedged run (e.g. a starved SoftwareQueue
	// consumer) unwinds all its goroutines promptly instead of leaking
	// them. The run returns stream.ErrCancelled. Excluded from
	// serialization so obs.ConfigHash stays process-independent.
	Cancel <-chan struct{} `json:"-"`
}

// Result is the outcome of one run.
type Result struct {
	App        string
	Protection Protection
	MTBE       float64
	Seed       int64
	FrameScale int

	// Quality is the paper's metric for this benchmark (PSNR for jpeg,
	// SNR otherwise), in dB, against the appropriate reference.
	Quality float64
	Metric  string
	// Output is the collected, sanitized output tape.
	Output []float64
	// Reference is what Quality was scored against (the media ground truth
	// or the error-free run output); nil if no reference was available.
	Reference []float64

	// Run carries the engine statistics (instructions, memory events,
	// firing slips, per-edge queue stats).
	Run *stream.RunStats
	// Guard carries CommGuard module statistics (nil unless Protection ==
	// CommGuard).
	Guard *commguard.Stats
	// Trace is the merged event stream (nil unless Config.Trace or
	// Config.TraceEvents was set or Config.Flight was armed), with core
	// tracks named after nodes and queue tracks after edges.
	Trace *obs.Trace
	// Health is the merged runtime-health histogram set (nil unless
	// Config.Health), in the fixed order of obs.Health.Summaries.
	Health []hist.Summary
	// Flight holds the fired flight-recorder triggers (nil when none
	// fired); Snapshot reports it as the "flight" section.
	Flight *obs.FlightSection
	// FlightDumps lists the artifact paths written by a fired flight
	// recorder (nil when no trigger fired), in WriteArtifacts order.
	FlightDumps []string
}

// DataLossRatio returns Fig. 8's measure for a CommGuard run: padded +
// discarded items over items delivered to threads.
func (r *Result) DataLossRatio() float64 {
	if r.Guard == nil {
		return 0
	}
	if r.Guard.AM.ItemsDelivered == 0 {
		return 0
	}
	return float64(r.Guard.AM.DataLossItems()) / float64(r.Guard.AM.ItemsDelivered)
}

// critFractionFor resolves a node's control-critical fraction against the
// analysis map: exact filter name, longest analyzed-name prefix, then the
// filter's concrete type as "pkg.Type" (how crit names builtin WorkBatch
// methods). Filters are held by pointer, so %T renders "*pkg.Type"; the
// star is stripped from both the node side and the map side — a caller
// that keyed its map with the raw %T spelling still matches.
func critFractionFor(fracs map[string]float64, n *stream.Node) (float64, bool) {
	name := n.F.Name()
	if f, ok := fracs[name]; ok {
		return f, true
	}
	best, bestLen, found := 0.0, -1, false
	for k, f := range fracs {
		if k != "" && strings.HasPrefix(name, k) && len(k) > bestLen {
			best, bestLen, found = f, len(k), true
		}
	}
	if found {
		return best, true
	}
	typeKey := strings.TrimPrefix(fmt.Sprintf("%T", n.F), "*")
	if f, ok := fracs[typeKey]; ok {
		return f, true
	}
	f, ok := fracs["*"+typeKey]
	return f, ok
}

// queueConfig picks the queue geometry for a protection level. The §5.1
// blocking bound is defaulted whenever the caller left Timeout at zero —
// including callers that override only the geometry — so no run silently
// gets an unbounded blocking pop. An explicitly negative Timeout requests
// indefinite blocking (mapped to queue.Config's 0, which Validate would
// otherwise reject as a likely mistake).
func (c Config) queueConfig() queue.Config {
	q := c.Queue
	if q.WorkingSets == 0 {
		q = queue.DefaultConfig()
		q.Timeout = c.Queue.Timeout
	}
	switch {
	case q.Timeout < 0:
		q.Timeout = 0 // deliberate indefinite blocking
	case q.Timeout == 0:
		// Blocking bounds: generous when error-free (blocking is real
		// back-pressure), tight when errors can starve a consumer.
		if c.Protection == ErrorFree || c.MTBE <= 0 {
			q.Timeout = 5 * time.Second
		} else {
			q.Timeout = 100 * time.Millisecond
		}
	}
	q.ProtectPointers = c.Protection != SoftwareQueue
	q.Cancel = c.Cancel
	if c.Coder != "" {
		q.Coder = c.Coder
	}
	return q
}

// Run executes one benchmark instance under the configuration. The
// instance must be freshly built (single use). For benchmarks without a
// built-in reference, reference may carry the error-free output to score
// against; pass nil to skip quality evaluation (Quality is then NaN).
func Run(inst *apps.Instance, cfg Config, reference []float64) (*Result, error) {
	if cfg.FrameScale < 1 {
		cfg.FrameScale = 1
	}
	qcfg := cfg.queueConfig()

	var transport stream.Transport
	var guard *commguard.Transport
	// tq is the transport's own queue geometry, which the sequential
	// sizing below adjusts once the engine has solved the schedule.
	var tq *queue.Config
	switch cfg.Protection {
	case CommGuard:
		guard = commguard.NewTransport(qcfg)
		transport, tq = guard, &guard.Queue
	case ErrorFree, SoftwareQueue, ReliableQueue, ABFT:
		plain := &stream.PlainTransport{Queue: qcfg}
		transport, tq = plain, &plain.Queue
	default:
		return nil, fmt.Errorf("sim: unknown protection %d", cfg.Protection)
	}

	engCfg := stream.EngineConfig{
		Transport:  transport,
		FrameScale: cfg.FrameScale,
		ABFT:       cfg.Protection == ABFT,
		Cancel:     cfg.Cancel,
	}
	// An armed flight recorder forces the tracer on: the rings are its
	// continuously-running capture buffer.
	flightArmed := cfg.Flight != nil && cfg.Flight.Armed()
	var tracer *obs.Tracer
	if cfg.Trace || cfg.TraceEvents != 0 || flightArmed {
		capacity := cfg.TraceEvents
		if capacity <= 0 {
			capacity = obs.DefaultEventsPerCore
		}
		tracer = obs.NewTracer(len(inst.Graph.Nodes), capacity)
		engCfg.Tracer = tracer
	}
	var health *obs.Health
	if cfg.Health {
		health = obs.NewHealth(len(inst.Graph.Nodes))
		engCfg.Health = health
		if guard != nil {
			guard.Health = health
		}
	}
	if cfg.Protection != ErrorFree && cfg.MTBE > 0 {
		model := fault.DefaultModel(cfg.Protection != SoftwareQueue)
		if cfg.Model != nil {
			model = *cfg.Model
			model.QueueProtected = cfg.Protection != SoftwareQueue
		}
		if err := model.Validate(); err != nil {
			return nil, err
		}
		mtbe, seed := cfg.MTBE, cfg.Seed
		if len(cfg.CritFractions) > 0 {
			// Core IDs equal node IDs, so each node gets a model matched
			// to its filter's control-critical fraction.
			models := make([]fault.Model, len(inst.Graph.Nodes))
			for i, n := range inst.Graph.Nodes {
				models[i] = model
				if frac, ok := critFractionFor(cfg.CritFractions, n); ok {
					models[i] = fault.CriticalityWeighted(model, frac)
				}
			}
			engCfg.NewInjector = func(core int) *fault.Injector {
				m := model
				if core >= 0 && core < len(models) {
					m = models[core]
				}
				return fault.NewInjector(mtbe, fault.CoreSeed(seed, core), m)
			}
		} else {
			engCfg.NewInjector = func(core int) *fault.Injector {
				return fault.NewInjector(mtbe, fault.CoreSeed(seed, core), model)
			}
		}
	}

	eng, err := stream.NewEngine(inst.Graph, engCfg)
	if err != nil {
		return nil, err
	}
	if cfg.Sequential {
		// Sequential hand-off publishes a whole frame per edge per
		// iteration; size the working sets to hold the largest frame.
		// Queues are built when the run wires its edges, so the engine's
		// schedule can still size them.
		maxItems := 0
		for _, n := range eng.Schedule().EdgeItems {
			if n > maxItems {
				maxItems = n
			}
		}
		if need := (maxItems+2)/tq.WorkingSets + 1; tq.WorkingSetUnits < need {
			tq.WorkingSetUnits = need
		}
	}
	var runStats *stream.RunStats
	if cfg.Sequential {
		runStats, err = eng.RunSequential()
	} else {
		runStats, err = eng.Run()
	}
	if err != nil {
		// A cancelled run is the flight recorder's hang trigger: the
		// engine has joined its goroutines (Run does not return before
		// unwinding), so the rings are safe to collect and dump.
		if flightArmed && cfg.Flight.Path != "" && errors.Is(err, stream.ErrCancelled) {
			stub := &Result{App: inst.Name, Protection: cfg.Protection,
				MTBE: cfg.MTBE, Seed: cfg.Seed, FrameScale: cfg.FrameScale,
				Quality: math.NaN(), Metric: inst.Metric,
				Trace: collectTrace(tracer, inst),
				Flight: &obs.FlightSection{Triggers: []obs.Trigger{{
					Kind: "hang", Detail: "run cancelled before completion: " + err.Error()}}},
			}
			if paths, derr := stub.WriteArtifacts(cfg.Flight.Path, cfg); derr == nil {
				err = fmt.Errorf("%w (flight dump: %s)", err, paths[len(paths)-1])
			}
		}
		return nil, err
	}

	res := &Result{
		App:        inst.Name,
		Protection: cfg.Protection,
		MTBE:       cfg.MTBE,
		Seed:       cfg.Seed,
		FrameScale: cfg.FrameScale,
		// No reference, no score: NaN (as documented), not a spurious
		// "real" 0 dB that aggregation would average in.
		Quality: math.NaN(),
		Metric:  inst.Metric,
		Output:  inst.Output(),
		Run:     runStats,
	}
	if guard != nil {
		gs := guard.Stats()
		res.Guard = &gs
	}
	res.Trace = collectTrace(tracer, inst)
	if health != nil {
		res.Health = health.Summaries()
	}

	ref := inst.Reference
	if ref == nil {
		ref = reference
	}
	if ref != nil {
		res.Quality = inst.Quality(res.Output, ref)
		res.Reference = ref
	}

	if flightArmed {
		qt := runStats.QueueTotals()
		var faults uint64
		for _, c := range runStats.Cores {
			faults += c.Errors.Total()
		}
		res.Flight = cfg.Flight.Evaluate(obs.FlightMetrics{
			QualityDB:    res.Quality,
			Items:        qt.ItemLoads,
			Timeouts:     qt.PushTimeouts + qt.PopTimeouts,
			Faults:       faults,
			Instructions: runStats.TotalInstructions(),
		}, res.Trace)
		if res.Flight != nil && cfg.Flight.Path != "" {
			paths, derr := res.WriteArtifacts(cfg.Flight.Path, cfg)
			if derr != nil {
				return nil, fmt.Errorf("sim: flight dump: %w", derr)
			}
			res.FlightDumps = paths
		}
	}
	return res, nil
}

// collectTrace merges the tracer's rings with core tracks named after
// nodes and queue tracks after edges. Nil tracer yields nil.
func collectTrace(tracer *obs.Tracer, inst *apps.Instance) *obs.Trace {
	if tracer == nil {
		return nil
	}
	coreNames := make([]string, len(inst.Graph.Nodes))
	for i, n := range inst.Graph.Nodes {
		coreNames[i] = n.Name()
	}
	queueNames := make([]string, len(inst.Graph.Edges))
	for _, e := range inst.Graph.Edges {
		queueNames[e.ID] = e.Src.Name() + " -> " + e.Dst.Name()
	}
	return tracer.Collect(coreNames, queueNames)
}

// referenceConfig derives the configuration of the error-free reference
// run from a measured run's configuration: injection is disabled, but
// every knob that shapes execution — frame scale, engine mode, queue
// geometry, fault-model overrides — carries over, so the reference
// executes under the same engine and queue geometry as the run it scores.
// The cancel signal carries over too: cancelling a job cancels its
// baseline.
func referenceConfig(cfg Config) Config {
	return Config{
		Protection: ErrorFree,
		FrameScale: cfg.FrameScale,
		Sequential: cfg.Sequential,
		Queue:      cfg.Queue,
		Model:      cfg.Model,
		Cancel:     cfg.Cancel,
	}
}

// RunBenchmark builds a fresh instance of the named benchmark and runs it.
// For self-referenced benchmarks it first performs an error-free run to
// obtain the reference output (the paper's methodology for the four
// non-media benchmarks), under the same engine mode and queue geometry as
// the measured run.
func RunBenchmark(b apps.Builder, cfg Config) (*Result, error) {
	inst, err := b.New()
	if err != nil {
		return nil, err
	}
	var reference []float64
	if inst.Reference == nil && cfg.Protection != ErrorFree {
		refInst, err := b.New()
		if err != nil {
			return nil, err
		}
		refRes, err := Run(refInst, referenceConfig(cfg), nil)
		if err != nil {
			return nil, err
		}
		reference = refRes.Output
	}
	return Run(inst, cfg, reference)
}
