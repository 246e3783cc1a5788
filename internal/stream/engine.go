package stream

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"commguard/internal/fault"
	"commguard/internal/obs"
	"commguard/internal/obs/hist"
	"commguard/internal/ppu"
	"commguard/internal/queue"
)

// EngineConfig controls one execution of a graph.
type EngineConfig struct {
	// Transport wires the edges; defaults to a reliable PlainTransport.
	Transport Transport
	// FrameScale down-samples frame computations (frame sizes ×2, ×4, ×8
	// of Figs. 10–13); must be >= 1.
	FrameScale int
	// Iterations is the number of steady-state iterations to execute.
	// Zero derives the maximum supported by the source tapes.
	Iterations int
	// NewInjector, when non-nil, supplies the per-core fault injector
	// (nil return = error-free core). Core IDs equal node IDs.
	NewInjector func(coreID int) *fault.Injector
	// Tracer, when non-nil, records per-core event streams (frame starts,
	// guard-module actions, queue slow-path events, fault manifestations).
	// Core IDs equal node IDs; ring i belongs exclusively to node i's
	// goroutine.
	Tracer *obs.Tracer
	// Health, when non-nil, records runtime-health latency histograms
	// (queue slow-path waits, firing durations of plain and checksummed
	// kernels, fault→detection latency) into per-core shards. Core IDs
	// equal node IDs, mirroring Tracer; nil disables recording at one
	// branch per would-be observation.
	Health *obs.Health
	// ABFT enables the checksummed execution mode on filters that
	// implement ABFTKernel (the sim.ABFT protection scheme): every firing
	// with no item-count perturbation armed fuses an output checksum into
	// the kernel loop, and a checksum mismatch after transit corruption
	// triggers a kernel recompute from the intact input buffer. Filters
	// without ABFT support run exactly as without this flag.
	ABFT bool
	// Cancel, when non-nil, aborts the run when closed: node goroutines
	// stop at the next iteration boundary and the run returns ErrCancelled.
	// To also unwind goroutines blocked inside queue push/pop wait loops,
	// pass the same channel as the transport's queue.Config.Cancel (sim
	// does this automatically). Excluded from serialization so config
	// hashes stay process-independent.
	//repolint:ignore RL001 teardown signal from the campaign watchdog, not inter-node data
	Cancel <-chan struct{} `json:"-"`
}

// CoreStats aggregates one node thread's activity.
type CoreStats struct {
	Node string
	// Instructions committed (compute + communication).
	Instructions uint64
	// Loads/Stores are modeled processor memory events: compute accesses
	// (a fraction of compute instructions) plus one event per item
	// pushed/popped. Header traffic is accounted by the queues.
	Loads  uint64
	Stores uint64
	// Firings executed, and control-frame slips applied.
	Firings         uint64
	SkippedFirings  uint64
	RepeatedFirings uint64
	// Errors injected on this core, by manifestation class.
	Errors fault.Counts
	// PPU is the protection-module view (frames, scope depth, watchdog).
	PPU ppu.Stats
	// ABFT is the kernel-protection view (EngineConfig.ABFT): checksum
	// and repair activity of this core's ABFT kernel.
	ABFT ABFTStats
}

// ABFTStats counts the ABFT scheme's protection suboperations on one
// core. Like CommGuard's suboperations (Fig. 14), they are accounted
// per committed instruction but never committed as instructions — the
// overhead ratio is Ops()/CoreStats.Instructions.
type ABFTStats struct {
	// ChecksumOps counts checksum arithmetic: fault.ABFTChecksumOpsPerItem
	// per item produced by a checksummed firing (one fused accumulate in
	// the compute loop, one re-accumulate at verification).
	ChecksumOps uint64
	// RecomputeOps counts repair arithmetic: the kernel's firing cost for
	// every recompute triggered by a checksum mismatch.
	RecomputeOps uint64
	// Corrections counts checksum mismatches repaired by recompute.
	Corrections uint64
}

// Ops sums all ABFT suboperations (the Fig.14-style numerator).
func (a ABFTStats) Ops() uint64 { return a.ChecksumOps + a.RecomputeOps }

// Add accumulates other into a.
func (a *ABFTStats) Add(other ABFTStats) {
	a.ChecksumOps += other.ChecksumOps
	a.RecomputeOps += other.RecomputeOps
	a.Corrections += other.Corrections
}

// Fractions of compute instructions that touch memory, used to model the
// all-loads/all-stores denominators of Fig. 12 (a typical compiled DSP
// loop mix).
const (
	loadFraction  = 0.25
	storeFraction = 0.10
)

// RunStats is the result of one engine run.
type RunStats struct {
	Iterations int
	Elapsed    time.Duration
	Cores      []CoreStats
	// Queues holds per-edge queue statistics, indexed by edge ID.
	Queues []queue.Stats
}

// TotalInstructions sums committed instructions across cores.
func (r *RunStats) TotalInstructions() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// QueueTotals sums the per-edge queue statistics.
func (r *RunStats) QueueTotals() queue.Stats {
	var total queue.Stats
	for _, qs := range r.Queues {
		total.Add(qs)
	}
	return total
}

// Engine executes a graph: one goroutine per node, queues on edges, frame
// computations delimited per steady-state iteration.
type Engine struct {
	g     *Graph
	sched *Schedule
	cfg   EngineConfig
}

// NewEngine validates and schedules the graph.
func NewEngine(g *Graph, cfg EngineConfig) (*Engine, error) {
	if cfg.FrameScale < 1 {
		cfg.FrameScale = 1
	}
	if cfg.Transport == nil {
		cfg.Transport = &PlainTransport{Queue: queue.DefaultConfig()}
	}
	sched, err := Solve(g)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, sched: sched, cfg: cfg}, nil
}

// Schedule exposes the steady-state schedule the engine derived.
func (e *Engine) Schedule() *Schedule { return e.sched }

// deriveIterations computes how many steady-state iterations the source
// tapes support.
func (e *Engine) deriveIterations() (int, error) {
	best := -1
	for _, n := range e.g.Sources() {
		src, ok := n.F.(*Source)
		if !ok {
			continue
		}
		perIter := e.sched.Multiplicity[n.ID] * src.PushRates()[0]
		if perIter == 0 {
			continue
		}
		iters := len(src.data) / perIter
		if best < 0 || iters < best {
			best = iters
		}
	}
	if best <= 0 {
		return 0, fmt.Errorf("stream: cannot derive iterations (no Source with a sufficient tape); set EngineConfig.Iterations")
	}
	return best, nil
}

// Run executes the graph to completion with one goroutine per node (the
// paper's parallel execution) and returns aggregate statistics.
func (e *Engine) Run() (*RunStats, error) {
	return e.execute(false)
}

// RunSequential executes the graph on a single goroutine following the
// static single-appearance schedule (every node fires its multiplicity
// once per steady iteration, in topological order). Error-free results
// are identical to Run's; under fault injection the interleaving — and
// therefore the exact realignment behavior — becomes fully deterministic,
// which Run cannot guarantee. Use it for reproducible experiments and
// debugging. Since a node's whole iteration of input is published before
// it runs, a node moves the items of up to max(1, 256/maxPortRate)
// fault-free firings through each port in one transit call
// (runIteration), with every result and counter as if it fired one by
// one. Queues never block in this mode: a pop on an empty
// queue cannot wait for a producer that runs on the same goroutine, so it
// times out at once. Error-free, producers always run a whole iteration
// ahead and no pop finds its queue empty. Under faults (a dropped header,
// a short frame) one can: the AM pads it at once, and items that arrive
// late are discarded, so timeouts, pads and quality can differ from Run's.
func (e *Engine) RunSequential() (*RunStats, error) {
	return e.execute(true)
}

func (e *Engine) execute(sequential bool) (*RunStats, error) {
	iterations := e.cfg.Iterations
	if iterations == 0 {
		var err error
		iterations, err = e.deriveIterations()
		if err != nil {
			return nil, err
		}
	}
	// Presize every sink's tape for the run's whole output, so no firing
	// regrows it.
	for _, n := range e.g.Nodes {
		if sink, ok := n.F.(*Sink); ok {
			sink.out = slices.Grow(sink.out, iterations*e.sched.Multiplicity[n.ID]*sink.rate)
		}
	}

	// One PPU core per node (the paper's 1 thread : 1 core placement).
	cores := make([]*ppu.Core, len(e.g.Nodes))
	for i := range cores {
		c, err := ppu.NewCore(i, e.cfg.FrameScale)
		if err != nil {
			return nil, err
		}
		// Attach the trace ring before transports wire the guard modules,
		// so HI/AM pick the ring up from the core (nil tracer = nil ring).
		c.SetTraceRing(e.cfg.Tracer.Ring(i))
		cores[i] = c
	}

	// Wire edges in ID order for determinism.
	outs := make([]OutPort, len(e.g.Edges))
	ins := make([]InPort, len(e.g.Edges))
	rawQs := make([]*queue.Queue, len(e.g.Edges))
	// The run owns the queues it wires. Every return below comes after the
	// last access to them (the sequential loop has ended or wg.Wait has
	// joined every node goroutine, and the stats are collected), so their
	// rings go back to the pool for the next run.
	defer func() {
		for _, q := range rawQs {
			if q != nil {
				q.Release()
			}
		}
	}()
	for _, edge := range e.g.Edges {
		op, ip, q, err := e.cfg.Transport.Wire(edge, cores[edge.Src.ID], cores[edge.Dst.ID])
		if err != nil {
			return nil, err
		}
		outs[edge.ID], ins[edge.ID], rawQs[edge.ID] = op, ip, q
		if q != nil {
			// Slow-path queue events land in the owning side's core ring:
			// publish/push-timeout on the producer's, return/pop-timeout on
			// the consumer's, keeping every ring single-writer.
			q.SetTrace(cores[edge.Src.ID].TraceRing(), cores[edge.Dst.ID].TraceRing())
			// Latency shards follow the same ownership split (producer-side
			// wait/publish, consumer-side wait/return); nil Health degrades
			// to all-nil shards.
			q.SetLatency(e.cfg.Health.QueueShards(edge.Src.ID, edge.Dst.ID))
		}
	}

	// Only the sequential engine groups firings into runs (runIteration):
	// there a node's whole iteration of input is already published when
	// it runs. On the concurrent engine a run would wait for n·rate items
	// per port, changing how bounded queues block and time out, so every
	// thread there fires one firing at a time.
	items := 0
	if sequential {
		items = runItems
	}
	threads := make([]*thread, len(e.g.Nodes))
	for _, n := range e.g.Nodes {
		var inj *fault.Injector
		if e.cfg.NewInjector != nil {
			inj = e.cfg.NewInjector(n.ID)
		}
		th := newThread(n, cores[n.ID], e.sched.Multiplicity[n.ID], inj, outs, ins, items)
		th.cancel = e.cfg.Cancel
		th.abft = e.cfg.ABFT && th.ak != nil
		th.health = e.cfg.Health
		th.hBatch, th.hABFT = e.cfg.Health.FireShards(n.ID)
		if th.abft {
			// ABFT self-detection: the checksummed kernel notices output
			// corruption injected on its own core, within the firing.
			th.det = e.cfg.Health.NewDetector(n.ID, n.ID)
		}
		for _, edge := range n.Out {
			th.rawQueues = append(th.rawQueues, rawQs[edge.ID])
		}
		for _, edge := range n.In {
			th.rawQueues = append(th.rawQueues, rawQs[edge.ID])
		}
		threads[n.ID] = th
	}

	start := time.Now()
	if sequential {
		// Producers run a whole steady iteration ahead of their consumers,
		// so every queue must hold one frame of items plus its header.
		for _, edge := range e.g.Edges {
			if q := rawQs[edge.ID]; q != nil && q.Capacity() < e.sched.EdgeItems[edge.ID]+2 {
				return nil, fmt.Errorf("stream: sequential execution needs queue capacity >= %d on edge %d (%s -> %s), have %d",
					e.sched.EdgeItems[edge.ID]+2, edge.ID, edge.Src.Name(), edge.Dst.Name(), q.Capacity())
			}
		}
		// The peer of every queue runs on this same goroutine: blocking
		// could never be satisfied, so empty/full resolve immediately,
		// and no queue word needs an atomic access.
		for _, q := range rawQs {
			if q != nil {
				q.SetSequential()
			}
		}
		order := e.topoOrder()
		for _, n := range order {
			threads[n.ID].core.BeginScope()
		}
		for it := 0; it < iterations && !e.cancelled(); it++ {
			for _, n := range order {
				threads[n.ID].runIteration()
				// Hand the frame off: publish partially filled working
				// sets so downstream nodes (which run next, on this same
				// goroutine) can drain them.
				for _, edge := range n.Out {
					if q := rawQs[edge.ID]; q != nil {
						q.Flush()
					}
				}
			}
		}
		for _, n := range order {
			threads[n.ID].finish()
		}
	} else {
		var wg sync.WaitGroup
		for _, th := range threads {
			wg.Add(1)
			go func(th *thread) {
				defer wg.Done()
				th.run(iterations)
			}(th)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	if e.cancelled() {
		// Every node goroutine has exited (wg.Wait above / the sequential
		// loop broke); partial statistics would be misleading, so none are
		// returned.
		return nil, ErrCancelled
	}

	stats := &RunStats{
		Iterations: iterations,
		Elapsed:    elapsed,
		Cores:      make([]CoreStats, len(threads)),
		Queues:     make([]queue.Stats, len(rawQs)),
	}
	for i, th := range threads {
		stats.Cores[i] = th.coreStats()
		stats.Cores[i].Node = e.g.Nodes[i].Name()
		stats.Cores[i].PPU = th.core.Stats()
		stats.Cores[i].Instructions = th.core.Stats().Instructions
		if th.inj != nil {
			stats.Cores[i].Errors = th.inj.Counts()
		}
	}
	for i, q := range rawQs {
		if q != nil {
			stats.Queues[i] = q.Stats()
		}
	}
	return stats, nil
}

// cancelled reports whether the run's cancel signal has fired (nil Cancel
// never fires).
func (e *Engine) cancelled() bool {
	//repolint:ignore RL001 non-blocking teardown poll, not inter-node data
	select {
	//repolint:ignore RL001 non-blocking teardown poll, not inter-node data
	case <-e.cfg.Cancel:
		return true
	default:
		return false
	}
}

// topoOrder returns the nodes in a producer-before-consumer order (the
// graph is validated acyclic at scheduling time).
func (e *Engine) topoOrder() []*Node {
	indeg := make([]int, len(e.g.Nodes))
	for _, n := range e.g.Nodes {
		indeg[n.ID] = len(n.In)
	}
	var order, queue []*Node
	for _, n := range e.g.Nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, edge := range n.Out {
			indeg[edge.Dst.ID]--
			if indeg[edge.Dst.ID] == 0 {
				queue = append(queue, edge.Dst)
			}
		}
	}
	return order
}

// thread executes one node.
type thread struct {
	node      *Node
	core      *ppu.Core
	inj       *fault.Injector
	mult      int
	cost      int
	ins       []*inTransit
	outs      []*outTransit
	rawQueues []*queue.Queue
	stats     CoreStats
	trace     *obs.Ring
	//repolint:ignore RL001 teardown signal from the campaign watchdog, not inter-node data
	cancel <-chan struct{}

	// ak is the filter's checksummed kernel (nil when it has none) and
	// abft enables the checksummed mode. inBufs/outBufs are the ports'
	// flat buffers in port order, as the kernels take them.
	ak      ABFTKernel
	abft    bool
	inBufs  [][]uint32
	outBufs [][]uint32

	// Runtime-health recording (all nil when EngineConfig.Health is):
	// firing-duration shards of the plain and the checksummed kernel
	// (WorkBatch, ABFT), the fault marker registry, the ABFT
	// self-detector, and the monotone input-item count it measures
	// detection latency against.
	health  *obs.Health
	hBatch  *hist.Shard
	hABFT   *hist.Shard
	det     *obs.Detector
	itemsIn uint64

	runLen int // longest run of fault-free firings fireRun takes at once
	sized  int // firings the ports' flat buffers hold now (size)
	// inRate/outRate are the items one clean firing pops/pushes over all
	// its ports; window is its instruction window in the injector: its
	// cost plus those items.
	inRate, outRate, window int
}

// runItems bounds the items one port moves in a run of grouped firings:
// a node fires up to max(1, runItems/maxRate) fault-free firings per
// transit call, maxRate being its largest port rate. 256
// items amortize a transit call's fixed cost over many rate-1..3
// firings while a run's buffers stay a few KB; a kernel with a port rate
// above 128 keeps one firing per call. Tests set it to 0 to force one
// firing per call everywhere.
var runItems = 256

// newThread builds node n's thread over the wired ports (outs and ins are
// indexed by edge ID), with one flat buffer per port. The buffers hold a
// run of up to max(1, items/maxRate) firings, capped at the node's
// multiplicity; items is 0 on the concurrent engine.
func newThread(n *Node, core *ppu.Core, mult int, inj *fault.Injector, outs []OutPort, ins []InPort, items int) *thread {
	t := &thread{
		node:  n,
		core:  core,
		inj:   inj,
		mult:  mult,
		cost:  DefaultFiringCost(n.F),
		trace: core.TraceRing(),
	}
	for _, edge := range n.In {
		t.ins = append(t.ins, &inTransit{port: ins[edge.ID], rate: edge.PopRate()})
	}
	for _, edge := range n.Out {
		t.outs = append(t.outs, &outTransit{port: outs[edge.ID], rate: edge.PushRate()})
	}
	t.ak, _ = n.F.(ABFTKernel)
	maxRate := 1
	for _, s := range t.ins {
		maxRate = max(maxRate, s.rate)
	}
	for _, s := range t.outs {
		maxRate = max(maxRate, s.rate)
	}
	t.runLen = max(1, min(mult, items/maxRate))
	t.sized = 1
	for _, s := range t.ins {
		s.buf = make([]uint32, s.rate, t.runLen*s.rate)
		s.clearPlan()
		t.inBufs = append(t.inBufs, s.buf)
		t.inRate += s.rate
	}
	for _, s := range t.outs {
		s.buf = make([]uint32, s.rate, t.runLen*s.rate)
		s.clearPlan()
		t.outBufs = append(t.outBufs, s.buf)
		t.outRate += s.rate
	}
	t.window = t.cost + t.inRate + t.outRate
	return t
}

// coreStats returns the thread's statistics with the modeled compute
// accesses folded in. Every firing accesses the same cost*loadFraction
// loads and cost*storeFraction stores besides its pops and pushes, so
// fire counts only the pops and pushes and the per-firing share is added
// here once, times Firings (the same sum, modulo 2^64 included).
func (t *thread) coreStats() CoreStats {
	c := t.stats
	c.Loads += c.Firings * uint64(float64(t.cost)*loadFraction)
	c.Stores += c.Firings * uint64(float64(t.cost)*storeFraction)
	return c
}

// runIteration executes one steady-state iteration (one frame computation)
// of the node. Its fault-free firings run in runs of up to t.runLen
// (fireRun), a thread whose runs are one firing long (a node that fires
// once per iteration, any node on the concurrent engine) taking them one
// at a time: the injector's Quiet commits the run's instruction windows
// and ends it just before the first firing with an error. Only that
// firing takes the per-firing path (fireWithFaults).
func (t *thread) runIteration() {
	t.core.BeginScope()
	t.core.BeginFrameComputation()
	// The PPU watchdog bounds looping inside the scope: even with
	// control-frame repeats the firing count cannot run away.
	guard := t.core.LoopGuard(t.mult * 2)
	for k := 0; k < t.mult; {
		if n := t.quietRun(min(t.mult-k, guard.Remaining())); n > 0 && guard.NextN(n) {
			t.fireRun(n)
			k += n
			continue
		}
		if !guard.Next() {
			break
		}
		t.fireWithFaults()
		k++
	}
	_ = t.core.EndScope()
}

// quietRun returns how many of the next firings, at most limit, form a
// fault-free run, committing their instruction windows in the injector:
// 0 when the next firing has an error.
func (t *thread) quietRun(limit int) int {
	n := min(limit, t.runLen)
	if t.inj != nil {
		n = t.inj.Quiet(t.window, n)
	}
	return n
}

// finish exits the outermost scope (signalling end of computation to the
// listeners, e.g. the HI's EOC headers) and closes the output ports.
func (t *thread) finish() {
	_ = t.core.EndScope()
	for _, o := range t.outs {
		o.port.End()
	}
}

func (t *thread) run(iterations int) {
	t.core.BeginScope()
	for it := 0; it < iterations && !t.cancelled(); it++ {
		t.runIteration()
	}
	// finish runs even on cancellation: End() flushes and closes the output
	// queues, which wakes downstream consumers and cascades the teardown.
	t.finish()
}

func (t *thread) cancelled() bool {
	//repolint:ignore RL001 non-blocking teardown poll, not inter-node data
	select {
	//repolint:ignore RL001 non-blocking teardown poll, not inter-node data
	case <-t.cancel:
		return true
	default:
		return false
	}
}

// fireWithFaults advances the error injector across this firing's
// instruction window and executes the firing with whatever manifestations
// fired, translating fault classes into the paper's error taxonomy (§3).
func (t *thread) fireWithFaults() {
	t.core.Commit(t.cost)
	var classes []fault.Class
	if t.inj != nil {
		classes = t.inj.Advance(t.window)
	}

	skip, repeat := false, false
	for _, c := range classes {
		t.trace.Fault(uint64(c), t.core.ActiveFC(), t.core.Stats().Instructions)
		switch c {
		case fault.DataBitflip:
			t.planDataFlip()
		case fault.ControlTrip:
			t.planControlTrip()
		case fault.ControlFrame:
			if t.inj.Rand().Intn(2) == 0 {
				skip = true
			} else {
				repeat = true
			}
		case fault.AddrSlip:
			t.planAddrSlip()
		case fault.QueuePtr:
			t.planQueuePtr()
		}
		if !t.abft {
			// Fault→detection marking for the alignment-based schemes:
			// only manifestations that perturb stream alignment (item
			// counts, skipped/repeated firings, queue management) are ones
			// an Alignment Manager can notice, so only those arm the
			// latency measurement. Data flips and addressing slips keep
			// alignment and would pollute the metric with undetectable
			// marks. ABFT marks at its own detectable site (workABFT's
			// post-checksum output corruption) instead.
			switch c {
			case fault.ControlTrip, fault.ControlFrame, fault.QueuePtr:
				t.health.MarkFault(t.core.ID())
			}
		}
	}

	if skip {
		// The whole firing is lost (AE_FL): no pops, no pushes.
		t.stats.SkippedFirings++
		t.clearPlans()
		return
	}
	t.fire()
	if repeat {
		// The firing repeats (AE_FE), with no perturbation armed.
		t.stats.RepeatedFirings++
		t.fire()
	}
}

// fire executes one firing on the per-firing path, which only a firing
// with an error takes (runIteration): every input port fills its flat
// buffer and applies its armed perturbations, the kernel runs over the
// buffers, and every output port applies its own and pushes. The
// checksummed ABFT kernel runs when no item-count perturbation is armed,
// else WorkBatch. Fault-free firings run in fireRun.
//
//hotpath:entry
func (t *thread) fire() {
	var t0 time.Time
	if t.hBatch != nil {
		t0 = time.Now()
	}
	t.size(1)
	for _, s := range t.ins {
		s.fill()
	}
	h := t.hBatch
	if t.abft && !t.countArmed() {
		h = t.hABFT
		t.workABFT()
	} else {
		//hotpath:ok CS023 batch kernels are annotated entries of their own (dsp/codec kernels)
		t.node.F.WorkBatch(t.inBufs, t.outBufs)
	}
	pops, pushes := 0, 0
	for _, s := range t.ins {
		pops += s.drain()
	}
	for _, s := range t.outs {
		pushes += s.flush()
	}
	t.stats.Firings++
	t.core.Commit(pops + pushes)
	t.stats.Loads += uint64(pops)
	t.stats.Stores += uint64(pushes)
	if h != nil {
		h.Record(uint64(time.Since(t0)))
	}
	t.itemsIn += uint64(pops)
}

// fireRun executes n >= 1 fault-free firings as one run. Each input port
// takes n·rate items into its flat buffer in one transit call, the
// kernel runs once over the run's buffers (Filter.WorkBatch's k-firing
// contract), and each output port pushes its n·rate items in one
// transit call. No perturbation is armed in a run, so every
// port moves the items n calls of fire would, in the same order, and
// every counter is charged the same totals: n·cost plus the items moved,
// n Firings, the ABFT work of n checksummed firings, and one firing
// histogram sample per firing (the run's time split evenly).
//
//hotpath:entry
func (t *thread) fireRun(n int) {
	var t0 time.Time
	if t.hBatch != nil {
		t0 = time.Now()
	}
	t.size(n)
	for _, s := range t.ins {
		//hotpath:ok CS023 ports resolve to the transports' PopN entries
		s.port.PopN(s.buf)
		s.last = s.buf[len(s.buf)-1]
	}
	h := t.hBatch
	if t.abft {
		h = t.hABFT
		t.workABFT()
	} else {
		//hotpath:ok CS023 batch kernels are annotated entries of their own (dsp/codec kernels)
		t.node.F.WorkBatch(t.inBufs, t.outBufs)
	}
	pops, pushes := n*t.inRate, n*t.outRate
	t.itemsIn += uint64(pops)
	for _, s := range t.outs {
		//hotpath:ok CS023 ports resolve to the transports' PushN entries
		s.port.PushN(s.buf)
		s.last = s.buf[len(s.buf)-1]
	}
	t.stats.Firings += uint64(n)
	t.core.Commit(n*t.cost + pops + pushes)
	t.stats.Loads += uint64(pops)
	t.stats.Stores += uint64(pushes)
	if h != nil {
		d := uint64(time.Since(t0)) / uint64(n)
		for range n {
			h.Record(d)
		}
	}
}

// size makes every port's flat buffer hold n firings' items, in the port
// and in inBufs/outBufs. The buffers keep the length of the last firing
// or run until one of another length comes: a thread whose runs all have
// one length sizes them once.
func (t *thread) size(n int) {
	if n == t.sized {
		return
	}
	t.sized = n
	for i, s := range t.ins {
		s.buf = s.buf[:n*s.rate]
		t.inBufs[i] = s.buf
	}
	for o, s := range t.outs {
		s.buf = s.buf[:n*s.rate]
		t.outBufs[o] = s.buf
	}
}

// countArmed reports whether an item-count perturbation (extra or starved
// pops, extra or dropped pushes) is armed on any port. Such a firing
// changes how many items cross the ports, which the output checksum
// cannot account for, so it is not checksummed.
func (t *thread) countArmed() bool {
	for _, s := range t.ins {
		if s.extraPops > 0 || s.starvedPops > 0 {
			return true
		}
	}
	for _, s := range t.outs {
		if s.extraPushes > 0 || s.droppedPushes > 0 {
			return true
		}
	}
	return false
}

// workABFT runs the checksummed kernel over the ports' buffers: one
// firing on the per-firing path, a whole run in fireRun. Output transit
// corruption strikes after the checksum was fused into the compute loop
// — the window ABFT closes — so the armed output flips are applied here,
// the checksum is re-derived from the communicated buffers, and a
// mismatch repairs the outputs by running the stateless kernel's
// WorkBatch again over the intact input buffers. Checksum work is
// charged per item, so a run costs what its firings would one by one.
func (t *thread) workABFT() {
	//hotpath:ok CS023 ABFT kernels are annotated entries of their own (dsp/codec kernels)
	sum := t.ak.WorkBatchABFT(t.inBufs, t.outBufs)
	itemsIn := t.itemsIn
	for _, b := range t.inBufs {
		itemsIn += uint64(len(b))
	}
	for _, s := range t.outs {
		t.stats.ABFT.ChecksumOps += uint64(fault.ABFTChecksumOpsPerItem * len(s.buf))
		if s.flipAt >= 0 {
			// The scheme's detectable-fault site, so the detection-latency
			// measurement arms here (and only here: input-side corruption
			// slips under the fused checksum).
			s.buf[s.flipAt] ^= 1 << uint(s.flipBit)
			s.flipAt = -1
			t.health.MarkFault(t.core.ID())
		}
	}
	t.det.Observe(itemsIn)
	//hotpath:ok CS023 checksum re-derivation dispatches to ChecksumF32/ChecksumU32 entries
	check := t.ak.ChecksumBatch(t.outBufs)
	if math.Float64bits(check) != math.Float64bits(sum) {
		t.det.Detect(itemsIn)
		//hotpath:ok CS023 repair re-runs the same fused kernel WorkBatchABFT just ran
		t.ak.WorkBatch(t.inBufs, t.outBufs)
		t.stats.ABFT.RecomputeOps += uint64(t.cost)
		t.stats.ABFT.Corrections++
	}
}

func (t *thread) clearPlans() {
	for _, s := range t.ins {
		s.clearPlan()
	}
	for _, s := range t.outs {
		s.clearPlan()
	}
}

// planDataFlip arms a single-bit corruption of one item communicated by
// this firing (DTE). Cores without communication flip nothing (their
// internal data errors surface through later communicated values anyway).
func (t *thread) planDataFlip() {
	r := t.inj.Rand()
	nPorts := len(t.ins) + len(t.outs)
	if nPorts == 0 {
		return
	}
	p := r.Intn(nPorts)
	if p < len(t.ins) {
		s := t.ins[p]
		s.flipAt = r.Intn(s.rate)
		s.flipBit = r.Intn(32)
	} else {
		s := t.outs[p-len(t.ins)]
		s.flipAt = r.Intn(s.rate)
		s.flipBit = r.Intn(32)
	}
}

// planControlTrip arms an item-count perturbation on one port
// (AE_I(E|L)): the communication loop runs k iterations too many or too
// few, with k bounded by the rate (the PPU bounds trip-count damage).
func (t *thread) planControlTrip() {
	r := t.inj.Rand()
	nPorts := len(t.ins) + len(t.outs)
	if nPorts == 0 {
		return
	}
	p := r.Intn(nPorts)
	if p < len(t.ins) {
		s := t.ins[p]
		k := 1 + r.Intn(s.rate)
		if r.Intn(2) == 0 {
			s.extraPops += k
		} else {
			s.starvedPops += k
		}
	} else {
		s := t.outs[p-len(t.ins)]
		k := 1 + r.Intn(s.rate)
		if r.Intn(2) == 0 {
			s.extraPushes += k
		} else {
			s.droppedPushes += k
		}
	}
}

// planAddrSlip arms a wrong-element read: one pop is served the previous
// value while the queue still advances (right count, wrong data).
func (t *thread) planAddrSlip() {
	r := t.inj.Rand()
	if len(t.ins) == 0 {
		// No input to misread; the slip lands in local state and
		// surfaces as a data flip on an output instead.
		if len(t.outs) > 0 {
			t.planDataFlip()
		}
		return
	}
	s := t.ins[r.Intn(len(t.ins))]
	s.slipAt = r.Intn(s.rate)
}

// planQueuePtr corrupts the management state of one attached queue (QME).
// The fault model already redirects this class to DataBitflip when the
// platform's queues are protected, so arriving here means the software
// queue is in use.
func (t *thread) planQueuePtr() {
	r := t.inj.Rand()
	if len(t.rawQueues) == 0 {
		return
	}
	q := t.rawQueues[r.Intn(len(t.rawQueues))]
	if q == nil {
		return
	}
	if r.Intn(4) == 0 {
		q.CorruptLocalOffset(r)
	} else {
		q.CorruptPointer(r)
	}
}

// inTransit is one input port's side of a firing: the flat buffer the
// kernel reads and the perturbations armed for the next firing.
type inTransit struct {
	port InPort
	rate int
	buf  []uint32 // this firing's items, rate long (a run's, in fireRun)
	last uint32   // most recently delivered value

	// Armed perturbations (cleared per firing).
	flipAt      int // buffer index whose value gets a bit flip; -1 = none
	flipBit     int
	slipAt      int // buffer index served the previous value; -1 = none
	extraPops   int // items consumed and discarded after the kernel
	starvedPops int // trailing buffer items served as last, port untouched
}

func (s *inTransit) clearPlan() {
	s.flipAt, s.slipAt = -1, -1
	s.extraPops, s.starvedPops = 0, 0
}

// fill takes this firing's items into buf and applies the armed
// perturbations once: the starved tail is served as last without
// consuming the port (the loop under-ran, the thread computes on a stale
// register), a slip serves the previous value while its item is still
// consumed, a flip corrupts one bit, and last tracks the delivered stream.
func (s *inTransit) fill() {
	n := max(0, s.rate-s.starvedPops)
	//hotpath:ok CS023 ports resolve to the transports' PopN entries
	s.port.PopN(s.buf[:n])
	if s.starvedPops == 0 && s.flipAt < 0 && s.slipAt < 0 {
		s.last = s.buf[n-1]
		return
	}
	last := s.last
	for i := range s.buf {
		v := last
		if i < n {
			if i != s.slipAt {
				v = s.buf[i]
			}
			if i == s.flipAt {
				v ^= 1 << uint(s.flipBit)
			}
		}
		s.buf[i] = v
		last = v
	}
	s.last = last
}

// drain ends the firing on this port and returns the number of items it
// consumed: the items fill took, plus the extra pops of an over-run
// loop, which are consumed here and lost.
func (s *inTransit) drain() int {
	consumed := max(0, s.rate-s.starvedPops) + s.extraPops
	for e := s.extraPops; e > 0; {
		c := s.buf[:min(e, cap(s.buf))]
		//hotpath:ok CS023 ports resolve to the transports' PopN entries
		s.port.PopN(c)
		e -= len(c)
	}
	s.clearPlan()
	return consumed
}

// outTransit is one output port's side of a firing: the flat buffer the
// kernel fills and the perturbations armed for the next firing.
type outTransit struct {
	port OutPort
	rate int
	buf  []uint32
	last uint32 // most recently produced value

	// Armed perturbations (cleared per firing).
	flipAt        int // buffer index whose value gets a bit flip; -1 = none
	flipBit       int
	extraPushes   int // copies of last pushed after the firing's items
	droppedPushes int // trailing items never pushed
}

func (s *outTransit) clearPlan() {
	s.flipAt = -1
	s.extraPushes, s.droppedPushes = 0, 0
}

// flush ends the firing on this port and returns the number of items it
// pushed: the armed flip, the items the loop did not drop in one PushN,
// then the extra pushes of last.
func (s *outTransit) flush() int {
	buf := s.buf
	if s.flipAt >= 0 && s.flipAt < len(buf) {
		buf[s.flipAt] ^= 1 << uint(s.flipBit)
	}
	if len(buf) > 0 {
		s.last = buf[len(buf)-1]
	}
	keep := len(buf)
	if s.droppedPushes > 0 {
		// Under-run: the loop exited early; the dropped tail never reaches
		// the queue (AE_IL for the consumer).
		keep = min(keep, max(0, s.rate-s.droppedPushes))
	}
	if keep > 0 {
		//hotpath:ok CS023 ports resolve to the transports' PushN entries
		s.port.PushN(buf[:keep])
	}
	// Over-run: garbage extras from the stale register (AE_IE).
	for e := s.extraPushes; e > 0; {
		c := buf[:min(e, cap(buf))]
		for i := range c {
			c[i] = s.last
		}
		//hotpath:ok CS023 ports resolve to the transports' PushN entries
		s.port.PushN(c)
		e -= len(c)
	}
	pushed := keep + s.extraPushes
	s.buf = buf[:s.rate]
	s.clearPlan()
	return pushed
}
