package stream_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"commguard/internal/apps"
	"commguard/internal/commguard"
	"commguard/internal/fault"
	"commguard/internal/obs"
	"commguard/internal/obs/hist"
	"commguard/internal/ppu"
	"commguard/internal/queue"
	"commguard/internal/sim"
	"commguard/internal/stream"
)

// The sequential engine fires a whole-firing kernel's fault-free firings
// in runs: one transit call per port and one kernel call per run. These tests run each
// configuration twice, grouped and with stream.ForcePerFiring, and
// require the two to agree bit for bit on everything a run reports.

// TestGroupedRunsMatchPerFiringJPEG covers jpeg, whose rate-1 split-join
// is what the runs are for, under every scheme at three error rates. The
// image has the default width, so every iteration fires the default
// graph's multiplicities, but a third of its rows.
func TestGroupedRunsMatchPerFiringJPEG(t *testing.T) {
	image := apps.DefaultJPEGConfig()
	image.H = 64
	b := apps.Builder{Name: "jpeg", New: func() (*apps.Instance, error) { return apps.NewJPEG(image) }}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, prot := range []sim.Protection{sim.ErrorFree, sim.ReliableQueue, sim.CommGuard, sim.ABFT} {
		for _, mtbe := range []float64{0, 64000, 512000} {
			for _, seed := range seeds {
				// The seed drives only the injectors, and error-free runs
				// have none: such repeats would run the same configuration.
				injected := prot != sim.ErrorFree && mtbe > 0
				if !injected && (seed != seeds[0] || (prot == sim.ErrorFree && mtbe > 0)) {
					continue
				}
				cfg := sim.Config{Protection: prot, MTBE: mtbe, Seed: seed, Sequential: true, Health: true}
				name := fmt.Sprintf("%v/mtbe=%g/seed=%d", prot, mtbe, seed)
				grouped := runSim(t, b, cfg, false)
				perFiring := runSim(t, b, cfg, true)
				compareSim(t, name, grouped, perFiring)
				if faults := errorsInjected(grouped.Run); injected && faults == 0 {
					t.Errorf("%s: no error injected", name)
				}
			}
		}
	}
}

func runSim(t *testing.T, b apps.Builder, cfg sim.Config, perFiring bool) *sim.Result {
	t.Helper()
	if perFiring {
		defer stream.ForcePerFiring()()
	}
	inst, err := b.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(inst, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareSim requires two sim results to agree on the output tape and its
// score, every core's statistics (PPU, ABFT and injector tallies
// included), every queue's, CommGuard's, the firing-histogram sample
// counts, which must also equal the firings, and the detection-latency
// histograms.
func compareSim(t *testing.T, name string, grouped, perFiring *sim.Result) {
	t.Helper()
	if !slices.EqualFunc(grouped.Output, perFiring.Output, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Errorf("%s: output tapes differ", name)
	}
	if math.Float64bits(grouped.Quality) != math.Float64bits(perFiring.Quality) {
		t.Errorf("%s: quality %v, per-firing %v", name, grouped.Quality, perFiring.Quality)
	}
	compareRunStats(t, name, grouped.Run, perFiring.Run)
	if !reflect.DeepEqual(grouped.Guard, perFiring.Guard) {
		t.Errorf("%s: CommGuard stats %+v, per-firing %+v", name, grouped.Guard, perFiring.Guard)
	}
	var firings uint64
	for _, c := range grouped.Run.Cores {
		firings += c.Firings
	}
	var samples uint64
	for i, h := range grouped.Health {
		if h.Name == "fire_batch" || h.Name == "fire_abft" {
			samples += h.Count
			if p := perFiring.Health[i]; p.Count != h.Count {
				t.Errorf("%s: %s has %d samples, per-firing %d", name, h.Name, h.Count, p.Count)
			}
		}
	}
	if samples != firings {
		t.Errorf("%s: %d firing-histogram samples for %d firings", name, samples, firings)
	}
	compareDetections(t, name, grouped.Health, perFiring.Health)
}

// compareDetections requires two runs' detection-latency histograms to
// agree: as many detections, and, in items consumed, the same latencies
// (wall-clock latencies are timing, so only their count is compared).
func compareDetections(t *testing.T, name string, grouped, perFiring []hist.Summary) {
	t.Helper()
	for i, h := range grouped {
		p := perFiring[i]
		switch h.Name {
		case "detect_wall":
			if h.Count != p.Count {
				t.Errorf("%s: %d detections timed, per-firing %d", name, h.Count, p.Count)
			}
		case "detect_items":
			if !reflect.DeepEqual(h, p) {
				t.Errorf("%s: detection latency in items %+v, per-firing %+v", name, h, p)
			}
		}
	}
}

func compareRunStats(t *testing.T, name string, grouped, perFiring *stream.RunStats) {
	t.Helper()
	if grouped.Iterations != perFiring.Iterations {
		t.Errorf("%s: %d iterations, per-firing %d", name, grouped.Iterations, perFiring.Iterations)
	}
	for i := range grouped.Cores {
		if grouped.Cores[i] != perFiring.Cores[i] {
			t.Errorf("%s: core %d stats\n%+v\nper-firing\n%+v", name, i, grouped.Cores[i], perFiring.Cores[i])
		}
	}
	for i := range grouped.Queues {
		if grouped.Queues[i] != perFiring.Queues[i] {
			t.Errorf("%s: queue %d stats %+v, per-firing %+v", name, i, grouped.Queues[i], perFiring.Queues[i])
		}
	}
}

func errorsInjected(stats *stream.RunStats) uint64 {
	var n uint64
	for _, c := range stats.Cores {
		n += c.Errors.Total()
	}
	return n
}

// handGraph builds a graph and returns it with its sink.
type handGraph func() (*stream.Graph, *stream.Sink, error)

// rgbSplitJoin is jpeg's shape: a 3000-item source dealt by a rate-1
// round-robin splitter to three rate-1 ABFT kernels and joined back. Each
// branch fires 1000 times per iteration, not a multiple of its 256-firing
// runs, and the splitter and joiner (port rate 3) run 85 at a time.
func rgbSplitJoin(tape []uint32) handGraph {
	return func() (*stream.Graph, *stream.Sink, error) {
		g := stream.NewGraph()
		src := g.Add(stream.NewSource("src", 3000, tape))
		split := g.Add(stream.NewRoundRobinSplitter("split", 1, 1, 1))
		join := g.Add(stream.NewRoundRobinJoiner("join", 1, 1, 1))
		sink := stream.NewSink("sink", 3000)
		snk := g.Add(sink)
		var branches [][]stream.Filter
		for b := range 3 {
			branches = append(branches, []stream.Filter{affine(fmt.Sprintf("color%d", b), uint32(2*b+3), uint32(b))})
		}
		if err := g.Connect(src, 0, split, 0); err != nil {
			return nil, nil, err
		}
		if err := g.SplitJoin(split, join, branches...); err != nil {
			return nil, nil, err
		}
		return g, sink, g.Connect(join, 0, snk, 0)
	}
}

// affine is a stateless rate-1 ABFT kernel, v -> a*v + c.
func affine(name string, a, c uint32) stream.Filter {
	return stream.NewABFTFilter(name, 1, 1, 10, func(in, out [][]uint32) float64 {
		s := 0.0
		for i, v := range in[0] {
			v = a*v + c
			out[0][i] = v
			s += float64(v)
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumU32(out[0]) })
}

// unequalRates deals 1, 2 and 3 items per firing to a stateful rate-1
// kernel (a running sum, so firing order shows), a 2 -> 4 kernel and a
// 3 -> 3 kernel, and joins 1, 4 and 3 items back.
func unequalRates(tape []uint32) handGraph {
	return func() (*stream.Graph, *stream.Sink, error) {
		g := stream.NewGraph()
		src := g.Add(stream.NewSource("src", 600, tape))
		split := g.Add(stream.NewRoundRobinSplitter("split", 1, 2, 3))
		join := g.Add(stream.NewRoundRobinJoiner("join", 1, 4, 3))
		sink := stream.NewSink("sink", 800)
		snk := g.Add(sink)
		var sum uint32
		running := stream.NewFuncFilter("running", 1, 1, 12, func(in, out [][]uint32) {
			for i, v := range in[0] {
				sum += v
				out[0][i] = sum
			}
		})
		widen := stream.NewFuncFilter("widen", 2, 4, 30, func(in, out [][]uint32) {
			for j := range len(in[0]) / 2 {
				a, b := in[0][2*j], in[0][2*j+1]
				out[0][4*j], out[0][4*j+1], out[0][4*j+2], out[0][4*j+3] = a, b, a^b, a+b
			}
		})
		reverse := stream.NewFuncFilter("reverse", 3, 3, 20, func(in, out [][]uint32) {
			for j := 0; j < len(in[0]); j += 3 {
				a, b, c := in[0][j], in[0][j+1], in[0][j+2]
				out[0][j], out[0][j+1], out[0][j+2] = c, b, a
			}
		})
		if err := g.Connect(src, 0, split, 0); err != nil {
			return nil, nil, err
		}
		if err := g.SplitJoin(split, join, []stream.Filter{running}, []stream.Filter{widen}, []stream.Filter{reverse}); err != nil {
			return nil, nil, err
		}
		return g, sink, g.Connect(join, 0, snk, 0)
	}
}

// handRun is one engine run's observable outcome.
type handRun struct {
	tape     []uint32
	stats    *stream.RunStats
	guard    *commguard.Stats
	samples  []uint64       // firing-histogram samples per core
	health   []hist.Summary // every runtime-health histogram
	transits int            // PopN and PushN calls
}

// runHand runs the graph on the sequential engine under scheme, as sim
// wires it: software-queue, reliable-queue and abft over plain queues,
// commguard through its transport, one injector per core.
func runHand(t *testing.T, build handGraph, scheme string, mtbe float64, seed int64) handRun {
	t.Helper()
	g, sink, err := build()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := stream.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	qcfg := queue.Config{WorkingSets: 4, WorkingSetUnits: (slices.Max(sched.EdgeItems)+2)/4 + 1,
		ProtectPointers: scheme != "software-queue", Timeout: time.Millisecond}
	health := obs.NewHealth(len(g.Nodes))
	tr := &countingTransport{Transport: &stream.PlainTransport{Queue: qcfg}}
	var guard *commguard.Transport
	if scheme == "commguard" {
		guard = commguard.NewTransport(qcfg)
		guard.Health = health
		tr.Transport = guard
	}
	cfg := stream.EngineConfig{Transport: tr, ABFT: scheme == "abft", Health: health}
	if scheme != "error-free" && mtbe > 0 {
		model := fault.DefaultModel(scheme != "software-queue")
		cfg.NewInjector = func(core int) *fault.Injector {
			return fault.NewInjector(mtbe, fault.CoreSeed(seed, core), model)
		}
	}
	eng, err := stream.NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	r := handRun{tape: sink.Collected(), stats: stats, transits: tr.calls, health: health.Summaries()}
	if guard != nil {
		gs := guard.Stats()
		r.guard = &gs
	}
	for i := range g.Nodes {
		batch, abft := health.FireShards(i)
		r.samples = append(r.samples, batch.Count()+abft.Count())
	}
	return r
}

// TestGroupedRunsMatchPerFiringHandGraphs covers the run boundaries jpeg
// may not reach: unequal port rates, a stateful kernel, multiplicities
// that runs do not divide, and error
// rates that end runs several times per iteration on every core.
func TestGroupedRunsMatchPerFiringHandGraphs(t *testing.T) {
	tape := make([]uint32, 3000*6)
	for i := range tape {
		tape[i] = uint32(i*2654435761) >> 7
	}
	graphs := []struct {
		name  string
		build handGraph
	}{
		{"rgb-split-join", rgbSplitJoin(tape)},
		{"unequal-rates", unequalRates(tape)},
	}
	for _, gr := range graphs {
		for _, scheme := range []string{"error-free", "software-queue", "reliable-queue", "commguard", "abft"} {
			for _, mtbe := range []float64{0, 3000, 40000} {
				for _, seed := range []int64{1, 2} {
					name := fmt.Sprintf("%s/%s/mtbe=%g/seed=%d", gr.name, scheme, mtbe, seed)
					grouped := runHand(t, gr.build, scheme, mtbe, seed)
					restore := stream.ForcePerFiring()
					perFiring := runHand(t, gr.build, scheme, mtbe, seed)
					restore()
					if !slices.Equal(grouped.tape, perFiring.tape) {
						t.Errorf("%s: output tapes differ", name)
					}
					compareRunStats(t, name, grouped.stats, perFiring.stats)
					if !reflect.DeepEqual(grouped.guard, perFiring.guard) {
						t.Errorf("%s: CommGuard stats %+v, per-firing %+v", name, grouped.guard, perFiring.guard)
					}
					for i, c := range grouped.stats.Cores {
						if grouped.samples[i] != c.Firings || perFiring.samples[i] != c.Firings {
							t.Errorf("%s: core %d has %d firing samples (per-firing %d) for %d firings",
								name, i, grouped.samples[i], perFiring.samples[i], c.Firings)
						}
					}
					compareDetections(t, name, grouped.health, perFiring.health)
					if errs := errorsInjected(grouped.stats); mtbe == 3000 && scheme != "error-free" && errs < 100 {
						t.Errorf("%s: only %d errors injected; runs were not cut", name, errs)
					}
					if grouped.transits >= perFiring.transits {
						t.Errorf("%s: %d transit calls grouped, %d per firing; no run was grouped",
							name, grouped.transits, perFiring.transits)
					}
				}
			}
		}
	}
}

// countingTransport counts the PopN and PushN calls of the ports it wires.
type countingTransport struct {
	stream.Transport
	calls int
}

func (c *countingTransport) Wire(e *stream.Edge, prod, cons *ppu.Core) (stream.OutPort, stream.InPort, *queue.Queue, error) {
	out, in, q, err := c.Transport.Wire(e, prod, cons)
	return &countingOut{out, &c.calls}, &countingIn{in, &c.calls}, q, err
}

type countingOut struct {
	stream.OutPort
	calls *int
}

func (o *countingOut) PushN(vs []uint32) { *o.calls++; o.OutPort.PushN(vs) }

type countingIn struct {
	stream.InPort
	calls *int
}

func (i *countingIn) PopN(dst []uint32) { *i.calls++; i.InPort.PopN(dst) }
