package apps

import (
	"fmt"
	"math"

	"commguard/internal/stream"
)

// DoAllConfig sizes the do-all extension benchmark.
type DoAllConfig struct {
	// Workers is the number of parallel identical workers.
	Workers int
	// Tasks is the number of independent work items.
	Tasks int
	// IterationsPerTask is the per-item compute depth (Newton iterations).
	IterationsPerTask int
}

// DefaultDoAllConfig matches the scale of the other benchmarks.
func DefaultDoAllConfig() DoAllConfig {
	return DoAllConfig{Workers: 4, Tasks: 4096, IterationsPerTask: 12}
}

// NewDoAll builds the do-all extension benchmark, demonstrating the
// paper's §9 claim that CommGuard "can also handle do-all parallelism
// which can be easily written in StreamIt" (the programming model ERSA
// requires, expressed as an ordinary split-join): a stream of independent
// work items is dealt round-robin to identical stateless workers — each
// computes an iterative cube root — and the results are collected in
// order. Quality is the SNR against the error-free run.
func NewDoAll(cfg DoAllConfig) (*Instance, error) {
	if cfg.Workers < 2 || cfg.Tasks <= 0 || cfg.IterationsPerTask < 1 {
		return nil, fmt.Errorf("apps: bad do-all config %+v", cfg)
	}
	w := cfg.Workers
	g := stream.NewGraph()
	src := g.Add(stream.NewSource("tasks", w, sharedTape(cfg, doAllTape)))
	weights := make([]int, w)
	for i := range weights {
		weights[i] = 1
	}
	split := g.Add(stream.NewRoundRobinSplitter("deal", weights...))
	join := g.Add(stream.NewRoundRobinJoiner("collect", weights...))
	if err := g.Connect(src, 0, split, 0); err != nil {
		return nil, err
	}
	branches := make([][]stream.Filter, w)
	iters := cfg.IterationsPerTask
	for i := 0; i < w; i++ {
		branches[i] = []stream.Filter{
			stream.NewFuncFilter(fmt.Sprintf("worker%d", i), 1, 1, 12*iters, func(in, out [][]uint32) {
				for j := range in[0] {
					x := sanitize(float64(stream.BitsF32(in[0][j])))
					if x < 1e-6 {
						x = 1e-6
					}
					// Newton's method for the cube root: each item is an
					// independent, idempotent task — the do-all model.
					z := x / 3
					for k := 0; k < iters; k++ {
						z -= (z*z*z - x) / (3 * z * z)
					}
					out[0][j] = stream.F32Bits(float32(z))
				}
			}),
		}
	}
	if err := g.SplitJoin(split, join, branches...); err != nil {
		return nil, err
	}
	sink := stream.NewSink("results", w)
	nSink := g.Add(sink)
	if err := g.Connect(join, 0, nSink, 0); err != nil {
		return nil, err
	}

	return &Instance{
		Name:    "doall",
		Metric:  "SNR",
		Graph:   g,
		Output:  func() []float64 { return f32TapeToF64(sink.Collected()) },
		Quality: snrQuality,
	}, nil
}

// doAllTape synthesizes cfg.Tasks deterministic positive work items spread
// over a wide range.
func doAllTape(cfg DoAllConfig) []uint32 {
	tape := make([]uint32, cfg.Tasks)
	for i := range tape {
		tape[i] = stream.F32Bits(float32(1 + 999*math.Abs(math.Sin(0.37*float64(i)))))
	}
	return tape
}
