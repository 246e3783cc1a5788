package stream

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"commguard/internal/fault"
	"commguard/internal/queue"
)

func fastQueue() queue.Config {
	return queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 100 * time.Millisecond}
}

func runPipeline(t *testing.T, cfg EngineConfig, data []uint32, filters ...Filter) ([]uint32, *RunStats) {
	t.Helper()
	g := NewGraph()
	all := append([]Filter{NewSource("src", 4, data)}, filters...)
	sink := NewSink("sink", 4)
	all = append(all, sink)
	if _, err := g.Chain(all...); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sink.Collected(), stats
}

func seqData(n int) []uint32 {
	d := make([]uint32, n)
	for i := range d {
		d[i] = uint32(i)
	}
	return d
}

func TestErrorFreeIdentityPipeline(t *testing.T) {
	data := seqData(64)
	out, stats := runPipeline(t, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}}, data,
		NewIdentity("id1", 2), NewIdentity("id2", 8))
	if len(out) != len(data) {
		t.Fatalf("output length %d, want %d", len(out), len(data))
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], data[i])
		}
	}
	// Balance: src(push4) a, id1(2->2) b, id2(8->8) c, sink(pop4) d gives
	// minimal multiplicities a=2,b=4,c=1,d=2: 8 source items per iteration.
	if stats.Iterations != 8 {
		t.Errorf("iterations = %d, want 8 (64 items / 8 per steady iteration)", stats.Iterations)
	}
	if stats.TotalInstructions() == 0 {
		t.Error("no instructions accounted")
	}
	for _, c := range stats.Cores {
		if c.Errors.Total() != 0 {
			t.Errorf("core %s injected errors in error-free run", c.Node)
		}
	}
}

func TestErrorFreeComputationPipeline(t *testing.T) {
	double := NewFuncFilter("double", 1, 1, 20, func(in, out [][]uint32) {
		for i, v := range in[0] {
			out[0][i] = v * 2
		}
	})
	data := seqData(32)
	out, _ := runPipeline(t, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}}, data, double)
	for i := range data {
		if out[i] != data[i]*2 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], data[i]*2)
		}
	}
}

func TestErrorFreeSplitJoinRoundTrip(t *testing.T) {
	g := NewGraph()
	data := seqData(60)
	src := g.Add(NewSource("src", 3, data))
	split := g.Add(NewRoundRobinSplitter("split", 1, 1, 1))
	join := g.Add(NewRoundRobinJoiner("join", 1, 1, 1))
	sink := NewSink("sink", 3)
	snk := g.Add(sink)
	if err := g.Connect(src, 0, split, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.SplitJoin(split, join,
		[]Filter{NewIdentity("r", 1)},
		[]Filter{NewIdentity("gch", 1)},
		[]Filter{NewIdentity("b", 1)},
	); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(join, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	if len(out) != len(data) {
		t.Fatalf("output length %d, want %d", len(out), len(data))
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("out[%d] = %d, want %d (split-join must preserve order)", i, out[i], data[i])
		}
	}
}

func TestDuplicateSplitterDelivers(t *testing.T) {
	g := NewGraph()
	data := seqData(20)
	src := g.Add(NewSource("src", 2, data))
	split := g.Add(NewDuplicateSplitter("dup", 2, 2))
	join := g.Add(NewRoundRobinJoiner("join", 2, 2))
	sink := NewSink("sink", 4)
	snk := g.Add(sink)
	if err := g.Connect(src, 0, split, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.SplitJoin(split, join, []Filter{}, []Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(join, 0, snk, 0); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	if len(out) != 2*len(data) {
		t.Fatalf("output length %d, want %d", len(out), 2*len(data))
	}
	// Round-robin(2,2) join of duplicated stream: 0 1 0 1 2 3 2 3 ...
	for i := 0; i < len(data); i += 2 {
		base := 2 * i
		want := []uint32{data[i], data[i+1], data[i], data[i+1]}
		for j, w := range want {
			if out[base+j] != w {
				t.Fatalf("out[%d] = %d, want %d", base+j, out[base+j], w)
			}
		}
	}
}

func TestDeriveIterationsRequiresSourceTape(t *testing.T) {
	g := NewGraph()
	if _, err := g.Chain(NewSource("src", 4, nil), NewSink("sink", 4)); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Error("empty source tape must fail iteration derivation")
	}
}

func TestExplicitIterations(t *testing.T) {
	g := NewGraph()
	sink := NewSink("sink", 4)
	if _, err := g.Chain(NewSource("src", 4, seqData(400)), sink); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 3 || len(sink.Collected()) != 12 {
		t.Errorf("iterations=%d collected=%d", stats.Iterations, len(sink.Collected()))
	}
}

// Under heavy fault injection the run must terminate, keep item counts
// bounded, and record the injected errors.
func TestFaultyRunTerminates(t *testing.T) {
	model := fault.DefaultModel(true)
	cfg := EngineConfig{
		Transport: &PlainTransport{Queue: fastQueue()},
		NewInjector: func(core int) *fault.Injector {
			return fault.NewInjector(200, fault.CoreSeed(42, core), model)
		},
	}
	data := seqData(400)
	out, stats := runPipeline(t, cfg, data, NewIdentity("id1", 2), NewIdentity("id2", 4))
	injected := uint64(0)
	for _, c := range stats.Cores {
		injected += c.Errors.Total()
	}
	if injected == 0 {
		t.Error("MTBE 200 injected no errors over a 400-item run")
	}
	// The sink pops a fixed rate per firing, but its own firings can be
	// skipped/repeated by control-frame errors: the count stays bounded
	// near the nominal length rather than exact.
	if len(out) < len(data)*9/10 || len(out) > len(data)*11/10 {
		t.Errorf("sink collected %d items, want within 10%% of %d", len(out), len(data))
	}
}

// Control-frame errors must show up as skipped/repeated firings, bounded by
// the PPU loop guard.
func TestControlFrameSlipsBounded(t *testing.T) {
	model := fault.Model{}
	model.Weights[fault.ControlFrame] = 1
	cfg := EngineConfig{
		Transport: &PlainTransport{Queue: fastQueue()},
		NewInjector: func(core int) *fault.Injector {
			return fault.NewInjector(50, fault.CoreSeed(7, core), model)
		},
	}
	_, stats := runPipeline(t, cfg, seqData(400), NewIdentity("id", 2))
	slips := uint64(0)
	for _, c := range stats.Cores {
		slips += c.SkippedFirings + c.RepeatedFirings
	}
	if slips == 0 {
		t.Error("pure control-frame model produced no firing slips")
	}
}

// With queue-pointer faults enabled on an unprotected queue, the run still
// terminates (timeouts bound blocking) and corruption is observable.
func TestQueuePtrFaultsOnSoftwareQueue(t *testing.T) {
	model := fault.Model{}
	model.Weights[fault.QueuePtr] = 1
	qcfg := fastQueue()
	qcfg.ProtectPointers = false
	qcfg.Timeout = 20 * time.Millisecond
	cfg := EngineConfig{
		Transport: &PlainTransport{Queue: qcfg},
		NewInjector: func(core int) *fault.Injector {
			return fault.NewInjector(500, fault.CoreSeed(3, core), model)
		},
	}
	out, stats := runPipeline(t, cfg, seqData(400), NewIdentity("id", 2))
	if len(out) != 400 {
		t.Errorf("sink collected %d items, want 400", len(out))
	}
	injected := uint64(0)
	for _, c := range stats.Cores {
		injected += c.Errors[fault.QueuePtr]
	}
	if injected == 0 {
		t.Error("no queue-pointer faults fired")
	}
}

func TestRunStatsAccounting(t *testing.T) {
	_, stats := runPipeline(t, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}},
		seqData(64), NewIdentity("id", 4))
	qt := stats.QueueTotals()
	// Two edges, 64 items each.
	if qt.ItemStores != 128 || qt.ItemLoads != 128 {
		t.Errorf("queue totals: %+v", qt)
	}
	for _, c := range stats.Cores {
		if c.Firings == 0 {
			t.Errorf("core %s fired 0 times", c.Node)
		}
		if c.Node == "" {
			t.Error("core stats missing node name")
		}
	}
	if stats.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestFrameScalePropagatesToPPU(t *testing.T) {
	g := NewGraph()
	sink := NewSink("sink", 4)
	if _, err := g.Chain(NewSource("src", 4, seqData(64)), sink); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}, FrameScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range stats.Cores {
		if c.PPU.FrameComputations != 16 {
			t.Errorf("%s frame computations = %d, want 16", c.Node, c.PPU.FrameComputations)
		}
		if c.PPU.Frames != 4 {
			t.Errorf("%s frames = %d, want 4 (scale 4)", c.Node, c.PPU.Frames)
		}
	}
}

func TestDefaultFiringCost(t *testing.T) {
	id := NewIdentity("id", 10)
	if got := DefaultFiringCost(id); got != CommInstructionRatio*20+10 {
		t.Errorf("default cost = %d", got)
	}
	f := NewFuncFilter("f", 1, 1, 999, nil)
	if got := DefaultFiringCost(f); got != 999 {
		t.Errorf("coster override = %d, want 999", got)
	}
	f0 := NewFuncFilter("f0", 2, 3, 0, nil)
	if got := DefaultFiringCost(f0); got != CommInstructionRatio*5+10 {
		t.Errorf("func default cost = %d", got)
	}
}

// There is no peek: a filter that needs earlier items keeps them in its
// own state. A causal 3-tap moving average carrying its last two inputs
// across firings must match the direct computation, on the concurrent
// engine (one firing per call) and on the sequential engine, which hands
// it runs of eight firings per call.
func TestHistoryMovingAverage(t *testing.T) {
	const n = 64
	data := make([]uint32, n)
	for i := range data {
		data[i] = F32Bits(float32(i))
	}
	for _, sequential := range []bool{false, true} {
		var x1, x2 float32 // the two previous inputs
		avg := NewFuncFilter("avg3", 1, 1, 30, func(in, out [][]uint32) {
			for i, v := range in[0] {
				x := BitsF32(v)
				out[0][i] = F32Bits((x2 + x1 + x) / 3)
				x2, x1 = x1, x
			}
		})
		g := NewGraph()
		sink := NewSink("sink", 8)
		if _, err := g.Chain(NewSource("src", 8, data), avg, sink); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}})
		if err != nil {
			t.Fatal(err)
		}
		run := eng.Run
		if sequential {
			run = eng.RunSequential
		}
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		out := sink.Collected()
		if len(out) != n {
			t.Fatalf("sequential %v: collected %d, want %d", sequential, len(out), n)
		}
		for i := 0; i < n; i++ {
			want := float32(i) / 3
			switch {
			case i >= 2:
				want = (float32(i-2) + float32(i-1) + float32(i)) / 3
			case i == 1:
				want = (0 + float32(0) + float32(1)) / 3
			}
			if got := BitsF32(out[i]); got != want {
				t.Fatalf("sequential %v: out[%d] = %v, want %v", sequential, i, got, want)
			}
		}
	}
}

// Sequential execution: identical error-free results, fully deterministic
// error-prone results, and a clear error when queues cannot hold a frame.
func TestRunSequentialMatchesConcurrentErrorFree(t *testing.T) {
	build := func() (*Engine, *Sink) {
		g := NewGraph()
		double := NewFuncFilter("double", 2, 2, 25, func(in, out [][]uint32) {
			for i, v := range in[0] {
				out[0][i] = 2 * v
			}
		})
		sink := NewSink("sink", 4)
		if _, err := g.Chain(NewSource("src", 4, seqData(256)), double, sink); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: fastQueue()}})
		if err != nil {
			t.Fatal(err)
		}
		return eng, sink
	}
	engC, sinkC := build()
	if _, err := engC.Run(); err != nil {
		t.Fatal(err)
	}
	engS, sinkS := build()
	if _, err := engS.RunSequential(); err != nil {
		t.Fatal(err)
	}
	a, b := sinkC.Collected(), sinkS.Collected()
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequential differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunSequentialDeterministicUnderErrors(t *testing.T) {
	run := func() []uint32 {
		g := NewGraph()
		sink := NewSink("sink", 4)
		if _, err := g.Chain(NewSource("src", 4, seqData(512)), NewIdentity("id", 4), sink); err != nil {
			t.Fatal(err)
		}
		model := fault.DefaultModel(true)
		eng, err := NewEngine(g, EngineConfig{
			Transport: &PlainTransport{Queue: fastQueue()},
			NewInjector: func(core int) *fault.Injector {
				return fault.NewInjector(500, fault.CoreSeed(21, core), model)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunSequential(); err != nil {
			t.Fatal(err)
		}
		return sink.Collected()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestRunSequentialRejectsSmallQueues(t *testing.T) {
	g := NewGraph()
	sink := NewSink("sink", 64)
	if _, err := g.Chain(NewSource("src", 64, seqData(256)), sink); err != nil {
		t.Fatal(err)
	}
	small := queue.Config{WorkingSets: 2, WorkingSetUnits: 8, ProtectPointers: true, Timeout: time.Millisecond}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: small}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSequential(); err == nil {
		t.Error("undersized queues accepted for sequential execution")
	}
}

// Property: for random error-free pipelines, sequential and concurrent
// execution produce identical outputs.
func TestQuickSequentialEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 + rng.Intn(3)
		srcRate := 1 + rng.Intn(6)
		build := func() (*Engine, *Sink) {
			g := NewGraph()
			filters := []Filter{NewSource("src", srcRate, seqData(srcRate*24))}
			for i := 0; i < stages; i++ {
				rate := 1 + rng.Intn(6)
				mul := uint32(1 + rng.Intn(5))
				filters = append(filters, NewFuncFilter("f", rate, rate, 20, func(in, out [][]uint32) {
					for k, v := range in[0] {
						out[0][k] = mul * v
					}
				}))
			}
			sink := NewSink("sink", 1+rng.Intn(6))
			filters = append(filters, sink)
			if _, err := g.Chain(filters...); err != nil {
				t.Fatal(err)
			}
			qcfg := queue.Config{WorkingSets: 4, WorkingSetUnits: 256, ProtectPointers: true, Timeout: 2 * time.Second}
			eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: qcfg}})
			if err != nil {
				t.Fatal(err)
			}
			return eng, sink
		}
		// The two builds must use identical random filter parameters:
		// re-seed between them.
		save := rng
		_ = save
		rng = rand.New(rand.NewSource(seed))
		rng.Intn(3) // consume the same prefix
		rng.Intn(6)
		engC, sinkC := build()
		rng = rand.New(rand.NewSource(seed))
		rng.Intn(3)
		rng.Intn(6)
		engS, sinkS := build()

		if _, err := engC.Run(); err != nil {
			return true // unschedulable random combo: skip
		}
		if _, err := engS.RunSequential(); err != nil {
			return false
		}
		a, b := sinkC.Collected(), sinkS.Collected()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
