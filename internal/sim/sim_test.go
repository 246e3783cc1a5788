package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"commguard/internal/apps"
	"commguard/internal/diag"
	"commguard/internal/fault"
	"commguard/internal/obs"
	"commguard/internal/obs/hist"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

func TestProtectionString(t *testing.T) {
	want := map[Protection]string{
		ErrorFree: "error-free", SoftwareQueue: "software-queue",
		ReliableQueue: "reliable-queue", CommGuard: "commguard",
		ABFT: "abft",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if Protection(9).String() != "invalid" {
		t.Error("unknown protection should stringify as invalid")
	}
}

func smallComplexFIR() apps.Builder {
	return apps.Builder{Name: "complex-fir", New: func() (*apps.Instance, error) {
		return apps.NewComplexFIR(apps.ComplexFIRConfig{Samples: 1024, Stages: 2, Taps: 8})
	}}
}

func smallMP3() apps.Builder {
	return apps.Builder{Name: "mp3", New: func() (*apps.Instance, error) {
		return apps.NewMP3(apps.MP3Config{Frames: 12})
	}}
}

func TestErrorFreeRunInfiniteQuality(t *testing.T) {
	res, err := RunBenchmark(smallComplexFIR(), Config{Protection: ErrorFree})
	if err != nil {
		t.Fatal(err)
	}
	// Self-referenced error-free run: the caller (RunBenchmark) skips the
	// reference for ErrorFree, so quality is unscored (zero) — what
	// matters is the run completed and produced output.
	if len(res.Output) == 0 {
		t.Fatal("no output")
	}
	if res.Run.TotalInstructions() == 0 {
		t.Error("no instructions accounted")
	}
}

func TestCommGuardRunUnderErrors(t *testing.T) {
	res, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard, MTBE: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard == nil {
		t.Fatal("CommGuard run missing guard stats")
	}
	if res.Guard.HI.HeadersInserted == 0 {
		t.Error("no headers inserted")
	}
	if math.IsNaN(res.Quality) {
		t.Error("quality not computed")
	}
	if res.Metric != "SNR" {
		t.Errorf("metric = %q", res.Metric)
	}
	if r := res.DataLossRatio(); r < 0 || r > 1 {
		t.Errorf("loss ratio = %v", r)
	}
}

func TestReliableQueueRunHasNoGuardStats(t *testing.T) {
	res, err := RunBenchmark(smallComplexFIR(), Config{Protection: ReliableQueue, MTBE: 10_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard != nil {
		t.Error("plain run has guard stats")
	}
	if res.DataLossRatio() != 0 {
		t.Error("plain run reports data loss")
	}
	injected := uint64(0)
	for _, c := range res.Run.Cores {
		injected += c.Errors.Total()
	}
	if injected == 0 {
		t.Error("no errors injected at MTBE 10k")
	}
}

func TestSoftwareQueueRunTerminates(t *testing.T) {
	res, err := RunBenchmark(smallComplexFIR(), Config{Protection: SoftwareQueue, MTBE: 50_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Error("no output collected")
	}
}

// CommGuard must beat the unguarded configurations at high error rates —
// the paper's central claim (Fig. 3). Averaged over seeds to avoid
// single-seed luck.
func TestCommGuardBeatsNoProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison")
	}
	avg := func(p Protection) float64 {
		sum := 0.0
		const seeds = 3
		for s := int64(0); s < seeds; s++ {
			res, err := RunBenchmark(smallMP3(), Config{Protection: p, MTBE: 150_000, Seed: 100 + s})
			if err != nil {
				t.Fatal(err)
			}
			q := res.Quality
			if math.IsInf(q, 1) {
				q = 60
			}
			if math.IsNaN(q) || q < -20 {
				q = -20
			}
			sum += q
		}
		return sum / seeds
	}
	guarded := avg(CommGuard)
	unguarded := avg(ReliableQueue)
	if guarded <= unguarded-1 {
		t.Errorf("CommGuard SNR %.2f dB not better than reliable-queue-only %.2f dB", guarded, unguarded)
	}
}

// The ABFT scheme runs the reliable QM (no guard stats) with checksummed
// batch kernels: every run must account checksum arithmetic on the
// kernel cores, and sequential replay must be bit-reproducible so the
// figure pipeline can journal and replay its points.
func TestABFTRunRecordsKernelStats(t *testing.T) {
	cfg := Config{Protection: ABFT, MTBE: 150_000, Seed: 5, Sequential: true}
	res, err := RunBenchmark(smallMP3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard != nil {
		t.Error("ABFT run has CommGuard guard stats")
	}
	var checksum uint64
	for _, c := range res.Run.Cores {
		checksum += c.ABFT.ChecksumOps
	}
	if checksum == 0 {
		t.Error("no checksum arithmetic accounted on any core")
	}
	if math.IsNaN(res.Quality) {
		t.Error("quality not computed")
	}

	again, err := RunBenchmark(smallMP3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(again.Output) {
		t.Fatalf("output lengths differ: %d vs %d", len(res.Output), len(again.Output))
	}
	for i := range res.Output {
		if res.Output[i] != again.Output[i] {
			t.Fatalf("sequential ABFT replay diverged at sample %d", i)
		}
	}
	var c2 uint64
	for _, c := range again.Run.Cores {
		c2 += c.ABFT.ChecksumOps
	}
	if checksum != c2 {
		t.Errorf("checksum accounting differed between identical runs: %d vs %d", checksum, c2)
	}
}

func TestSameSeedIsReproducible(t *testing.T) {
	cfg := Config{Protection: CommGuard, MTBE: 100_000, Seed: 42}
	a, err := RunBenchmark(smallMP3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(smallMP3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ia, ib := uint64(0), uint64(0)
	for i := range a.Run.Cores {
		ia += a.Run.Cores[i].Errors.Total()
		ib += b.Run.Cores[i].Errors.Total()
	}
	if ia != ib {
		t.Errorf("same seed injected %d vs %d errors", ia, ib)
	}
}

func TestFrameScalePlumbs(t *testing.T) {
	headers := map[int]uint64{}
	for _, scale := range []int{1, 4, 8} {
		res, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard, FrameScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if res.FrameScale != scale {
			t.Errorf("frame scale = %d, want %d", res.FrameScale, scale)
		}
		for _, c := range res.Run.Cores {
			if c.PPU.FrameComputations != 0 && c.PPU.Frames*uint64(scale) > c.PPU.FrameComputations+uint64(scale) {
				t.Errorf("scale %d: core %s frames %d not downscaled from %d", scale, c.Node, c.PPU.Frames, c.PPU.FrameComputations)
			}
		}
		headers[scale] = res.Guard.HI.HeadersInserted
	}
	// The frame-size knob (§5.4) exists to amortise headers: larger frames
	// must insert fewer of them.
	if headers[8] >= headers[1] {
		t.Errorf("scale 8 inserted %d headers, scale 1 %d; want fewer at scale 8", headers[8], headers[1])
	}
}

// faultEvents returns the run's applied-error timeline: the trace's
// KindFault events in trace order, which are complete only when no ring
// overwrote any.
func faultEvents(t *testing.T, res *Result) []obs.Event {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("traced run has no trace")
	}
	if res.Trace.Dropped != 0 {
		t.Fatalf("trace dropped %d of %d records", res.Trace.Dropped, len(res.Trace.Events)+int(res.Trace.Dropped))
	}
	var evs []obs.Event
	for _, e := range res.Trace.Events {
		if e.Kind == obs.KindFault {
			evs = append(evs, e)
		}
	}
	return evs
}

func TestTraceRecordsErrorTimeline(t *testing.T) {
	res, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard, MTBE: 50_000, Seed: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	evs := faultEvents(t, res)
	if len(evs) == 0 {
		t.Fatal("trace enabled but no fault events recorded")
	}
	injected := uint64(0)
	for _, c := range res.Run.Cores {
		injected += c.Errors.Total()
	}
	if uint64(len(evs)) != injected {
		t.Errorf("trace has %d fault events, injectors count %d", len(evs), injected)
	}
	// Each core's faults appear in instruction order, at a frame the
	// core had reached.
	last := map[int32]uint64{}
	for i, e := range evs {
		if e.Arg2 < last[e.Core] {
			t.Fatalf("fault %d on core %d out of instruction order", i, e.Core)
		}
		last[e.Core] = e.Arg2
		if res.Trace.CoreName(e.Core) == "" {
			t.Fatal("fault event on an unnamed core")
		}
		if obs.FaultClassName(e.Arg) == "invalid" || e.Arg == uint64(fault.None) {
			t.Errorf("fault event %d has class %d", i, e.Arg)
		}
	}
	// Without Trace, no tracer runs.
	res2, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard, MTBE: 50_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Error("trace disabled but events recorded")
	}
}

// Sequential mode: bit-reproducible error-prone runs (the concurrent
// engine only guarantees identical injection, not identical realignment).
func TestSequentialRunsBitReproducible(t *testing.T) {
	cfg := Config{Protection: CommGuard, MTBE: 100_000, Seed: 13, Sequential: true}
	a, err := RunBenchmark(smallMP3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(smallMP3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatalf("output lengths differ: %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("sequential replay diverged at sample %d", i)
		}
	}
	if a.Guard.AM.DataLossItems() != b.Guard.AM.DataLossItems() {
		t.Error("realignment activity differed between identical sequential runs")
	}
}

// CritFractions must reshape the injected class mix per node: forcing the
// control-critical fraction to 1 eliminates DataBitflip manifestations,
// forcing it to 0 leaves nothing but DataBitflip.
func TestCritFractionsReweightInjection(t *testing.T) {
	build := smallComplexFIR()
	run := func(frac float64) []obs.Event {
		inst, err := build.New()
		if err != nil {
			t.Fatal(err)
		}
		fracs := map[string]float64{}
		for _, n := range inst.Graph.Nodes {
			fracs[n.F.Name()] = frac
		}
		res, err := Run(inst, Config{
			Protection: ReliableQueue, MTBE: 10_000, Seed: 9,
			Trace: true, CritFractions: fracs,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		evs := faultEvents(t, res)
		if len(evs) == 0 {
			t.Fatal("no errors traced at MTBE 10k")
		}
		return evs
	}
	for _, ev := range run(1) {
		if fault.Class(ev.Arg) == fault.DataBitflip {
			t.Errorf("frac=1 run injected %v on core %d", fault.Class(ev.Arg), ev.Core)
		}
	}
	for _, ev := range run(0) {
		if fault.Class(ev.Arg) != fault.DataBitflip {
			t.Errorf("frac=0 run injected %v on core %d", fault.Class(ev.Arg), ev.Core)
		}
	}
}

// An unmatched CritFractions map must leave the model untouched — same
// class timeline as a run without the map.
func TestCritFractionsUnmatchedKeepsBaseModel(t *testing.T) {
	run := func(fracs map[string]float64) []obs.Event {
		inst, err := smallComplexFIR().New()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(inst, Config{
			Protection: ReliableQueue, MTBE: 20_000, Seed: 4,
			Trace: true, CritFractions: fracs,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Concurrent runs interleave cores differently run to run; each
		// core's own timeline is what must match.
		evs := faultEvents(t, res)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Core < evs[j].Core })
		return evs
	}
	base := run(nil)
	unmatched := run(map[string]float64{"no-such-filter": 0.99})
	if len(base) == 0 || len(base) != len(unmatched) {
		t.Fatalf("event counts differ: %d vs %d", len(base), len(unmatched))
	}
	for i := range base {
		if base[i].Arg != unmatched[i].Arg || base[i].Core != unmatched[i].Core {
			t.Fatalf("timelines diverge at %d: %+v vs %+v", i, base[i], unmatched[i])
		}
	}
}

// Sequential and concurrent error-free runs agree exactly.
func TestSequentialMatchesConcurrentErrorFree(t *testing.T) {
	seqRes, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	conRes, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Output) != len(conRes.Output) {
		t.Fatalf("lengths %d vs %d", len(seqRes.Output), len(conRes.Output))
	}
	for i := range seqRes.Output {
		if seqRes.Output[i] != conRes.Output[i] {
			t.Fatalf("modes differ at %d", i)
		}
	}
}

func TestRunQualityNaNWithoutReference(t *testing.T) {
	// complex-fir has no built-in reference; calling Run directly with a
	// nil reference must report Quality = NaN, not a misleading 0 dB.
	inst, err := smallComplexFIR().New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(inst, Config{Protection: ErrorFree}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Quality) {
		t.Errorf("Quality = %v without a reference, want NaN", res.Quality)
	}
}

func TestReferenceConfigPropagates(t *testing.T) {
	cancel := make(chan struct{})
	cfg := Config{
		Protection: CommGuard,
		MTBE:       512_000,
		Seed:       7,
		FrameScale: 4,
		Sequential: true,
		Queue:      queue.Config{WorkingSets: 8, WorkingSetUnits: 16, Timeout: 250 * time.Millisecond},
		Model:      &fault.Model{},
		Cancel:     cancel,
	}
	ref := referenceConfig(cfg)
	if ref.Protection != ErrorFree {
		t.Errorf("reference Protection = %v, want ErrorFree", ref.Protection)
	}
	if ref.MTBE != 0 || ref.Seed != 0 {
		t.Errorf("reference must not inherit fault injection: MTBE=%v Seed=%v", ref.MTBE, ref.Seed)
	}
	if ref.FrameScale != cfg.FrameScale {
		t.Errorf("FrameScale = %d, want %d", ref.FrameScale, cfg.FrameScale)
	}
	if !ref.Sequential {
		t.Error("Sequential not propagated to the reference run")
	}
	if ref.Queue != cfg.Queue {
		t.Errorf("Queue geometry = %+v, want %+v", ref.Queue, cfg.Queue)
	}
	if ref.Model != cfg.Model {
		t.Error("Model not propagated to the reference run")
	}
	if ref.Cancel == nil {
		t.Error("Cancel not propagated to the reference run")
	}
}

func TestQueueConfigDefaultsTimeoutWithCustomGeometry(t *testing.T) {
	// A caller overriding only the geometry must still get the §5.1
	// blocking bound, never a silently unbounded pop.
	custom := queue.Config{WorkingSets: 8, WorkingSetUnits: 16}

	got := Config{Protection: ErrorFree, Queue: custom}.queueConfig()
	if got.Timeout != 5*time.Second {
		t.Errorf("error-free custom-geometry Timeout = %v, want 5s", got.Timeout)
	}
	got = Config{Protection: SoftwareQueue, MTBE: 1e6, Queue: custom}.queueConfig()
	if got.Timeout != 100*time.Millisecond {
		t.Errorf("error-prone custom-geometry Timeout = %v, want 100ms", got.Timeout)
	}
	// Explicit values pass through untouched.
	custom.Timeout = 42 * time.Millisecond
	got = Config{Protection: SoftwareQueue, MTBE: 1e6, Queue: custom}.queueConfig()
	if got.Timeout != 42*time.Millisecond {
		t.Errorf("explicit Timeout = %v, want 42ms", got.Timeout)
	}
	// Negative means deliberate indefinite blocking: mapped to the queue
	// layer's 0 (which queue.Config.Validate rejects if set directly).
	custom.Timeout = -1
	got = Config{Protection: ErrorFree, Queue: custom}.queueConfig()
	if got.Timeout != 0 {
		t.Errorf("negative Timeout mapped to %v, want 0", got.Timeout)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("mapped config should validate, got %v", err)
	}
	// Geometry is preserved when only the timeout was defaulted.
	if got.WorkingSets != 8 || got.WorkingSetUnits != 16 {
		t.Errorf("custom geometry not preserved: %+v", got)
	}
}

func TestCritFractionForLookup(t *testing.T) {
	g := stream.NewGraph()
	if _, err := g.Chain(
		stream.NewSource("src", 1, make([]uint32, 4)),
		stream.NewFuncFilter("apps.lowpass#3", 1, 1, 1, func(in, out [][]uint32) { copy(out[0], in[0]) }),
		stream.NewSink("snk", 1),
	); err != nil {
		t.Fatal(err)
	}
	var src, mid *stream.Node
	for _, n := range g.Nodes {
		switch n.F.Name() {
		case "src":
			src = n
		case "apps.lowpass#3":
			mid = n
		}
	}

	// Exact name wins over everything.
	if f, ok := critFractionFor(map[string]float64{"apps.lowpass#3": 0.5, "apps.lowpass": 0.1}, mid); !ok || f != 0.5 {
		t.Errorf("exact: got %v %v", f, ok)
	}
	// Longest analyzed-name prefix (Sprintf-built names are verb-stripped).
	if f, ok := critFractionFor(map[string]float64{"apps.low": 0.1, "apps.lowpass": 0.3}, mid); !ok || f != 0.3 {
		t.Errorf("prefix: got %v %v", f, ok)
	}
	// Builtin nodes fall back to their concrete type; filters live behind
	// pointers, so both the stripped and the raw %T spelling must match.
	typeKey := strings.TrimPrefix(fmt.Sprintf("%T", src.F), "*")
	if f, ok := critFractionFor(map[string]float64{typeKey: 0.2}, src); !ok || f != 0.2 {
		t.Errorf("type key %q: got %v %v", typeKey, f, ok)
	}
	if f, ok := critFractionFor(map[string]float64{"*" + typeKey: 0.4}, src); !ok || f != 0.4 {
		t.Errorf("pointer-spelled type key %q: got %v %v", "*"+typeKey, f, ok)
	}
	if _, ok := critFractionFor(map[string]float64{"other.Thing": 1}, src); ok {
		t.Error("unrelated key matched")
	}
}

// TestHealthHistogramsPopulated pins the runtime-health integration: a
// guarded run with Config.Health collects the full fixed histogram set,
// with firing durations recorded and the detection-latency pair
// internally consistent (every detection has both a wall and an items
// sample).
func TestHealthHistogramsPopulated(t *testing.T) {
	find := func(res *Result, name string) hist.Summary {
		for _, s := range res.Health {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("histogram %q missing from Result.Health", name)
		return hist.Summary{}
	}
	var detections uint64
	for seed := int64(1); seed <= 5; seed++ {
		res, err := RunBenchmark(smallMP3(), Config{Protection: CommGuard, MTBE: 50_000, Seed: seed, Health: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Health) != 8 {
			t.Fatalf("Result.Health has %d summaries, want 8", len(res.Health))
		}
		if find(res, "fire_batch").Count == 0 {
			t.Error("no firing durations recorded")
		}
		wall, items := find(res, "detect_wall"), find(res, "detect_items")
		if wall.Count != items.Count {
			t.Errorf("seed %d: detect_wall.Count=%d != detect_items.Count=%d", seed, wall.Count, items.Count)
		}
		if wall.Unit != "ns" || items.Unit != "items" {
			t.Errorf("detection units = %q/%q", wall.Unit, items.Unit)
		}
		detections += wall.Count
		if seed > 1 {
			continue
		}
		// The written snapshot's latency section round-trips every
		// histogram, in order, with its unit and count.
		cfg := Config{Protection: CommGuard, MTBE: 50_000, Seed: seed, Health: true}
		paths, err := res.WriteArtifacts(filepath.Join(t.TempDir(), "h"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 1 {
			t.Errorf("untraced run wrote %v, want the snapshot alone", paths)
		}
		var latency struct{ Histograms []hist.Summary }
		readSection(t, readSnapshot(t, paths[0]), "latency", &latency)
		if len(latency.Histograms) != len(res.Health) {
			t.Fatalf("latency section has %d histograms, want %d", len(latency.Histograms), len(res.Health))
		}
		for i, h := range latency.Histograms {
			w := res.Health[i]
			if h.Name != w.Name || h.Unit != w.Unit || h.Count != w.Count {
				t.Errorf("latency histogram %d = %s/%s/%d, want %s/%s/%d", i, h.Name, h.Unit, h.Count, w.Name, w.Unit, w.Count)
			}
		}
	}
	if detections == 0 {
		t.Error("no AM detections across 5 seeds at MTBE 50k")
	}
}

// readSnapshot reads a written snapshot, checks it against the diag
// schema, and returns its sections.
func readSnapshot(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := diag.ValidateSnapshot(raw); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var doc struct{ Sections map[string]json.RawMessage }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Sections
}

// readSection decodes one snapshot section into v.
func readSection(t *testing.T, sections map[string]json.RawMessage, name string, v any) {
	t.Helper()
	raw, ok := sections[name]
	if !ok {
		t.Fatalf("snapshot has no %q section", name)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s section: %v", name, err)
	}
}

// TestFlightTriggerDumpsArtifacts pins the flight-recorder integration: a
// run whose fault rate exceeds the armed threshold writes the trace pair
// and a snapshot naming the trigger, even though event tracing was never
// explicitly enabled.
func TestFlightTriggerDumpsArtifacts(t *testing.T) {
	base := filepath.Join(t.TempDir(), "storm")
	res, err := RunBenchmark(smallComplexFIR(), Config{
		Protection: ReliableQueue, MTBE: 10_000, Seed: 2,
		Flight: &obs.FlightOptions{Path: base, FaultsPerKInstr: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("armed flight recorder did not force the tracer on")
	}
	want := []string{base + ".trace.json", base + ".jsonl", base + ".snapshot.json"}
	if fmt.Sprint(res.FlightDumps) != fmt.Sprint(want) {
		t.Fatalf("FlightDumps = %v, want %v", res.FlightDumps, want)
	}
	for _, p := range res.FlightDumps {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("listed artifact missing: %v", err)
		}
	}
	var flight obs.FlightSection
	readSection(t, readSnapshot(t, want[2]), "flight", &flight)
	if len(flight.Triggers) != 1 || flight.Triggers[0].Kind != "fault-storm" {
		t.Errorf("triggers = %+v, want one fault-storm", flight.Triggers)
	}
}

// TestFlightHangDumpsSnapshot covers the cancelled-run path: a run whose
// Cancel fires before it completes is the watchdog's "hang" trigger, and
// its artifacts are written even though the run returns only an error.
func TestFlightHangDumpsSnapshot(t *testing.T) {
	inst, err := smallComplexFIR().New()
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	base := filepath.Join(t.TempDir(), "hang")
	_, err = Run(inst, Config{
		Protection: CommGuard, MTBE: 10_000, Seed: 3, Cancel: cancel,
		Flight: &obs.FlightOptions{Path: base, Watchdog: true},
	}, nil)
	if !errors.Is(err, stream.ErrCancelled) {
		t.Fatalf("err = %v, want stream.ErrCancelled", err)
	}
	snapPath := base + ".snapshot.json"
	if !strings.Contains(err.Error(), snapPath) {
		t.Errorf("error %q does not name the snapshot %s", err, snapPath)
	}
	var flight obs.FlightSection
	readSection(t, readSnapshot(t, snapPath), "flight", &flight)
	if len(flight.Triggers) != 1 || flight.Triggers[0].Kind != "hang" {
		t.Errorf("triggers = %+v, want exactly one hang", flight.Triggers)
	}
}

// TestFlightUntriggeredWritesNothing: armed thresholds that never fire
// leave no artifacts behind.
func TestFlightUntriggeredWritesNothing(t *testing.T) {
	dir := t.TempDir()
	res, err := RunBenchmark(smallComplexFIR(), Config{
		Protection: ErrorFree,
		Flight:     &obs.FlightOptions{Path: filepath.Join(dir, "quiet"), Watchdog: true, FaultsPerKInstr: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlightDumps != nil || res.Flight != nil {
		t.Errorf("FlightDumps = %v, Flight = %+v on a clean run", res.FlightDumps, res.Flight)
	}
	if _, ok := res.Snapshot(Config{}).Sections["flight"]; ok {
		t.Error("untriggered run's snapshot has a flight section")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("artifacts written without a trigger: %v", entries)
	}
}
