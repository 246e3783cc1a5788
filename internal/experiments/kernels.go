package experiments

import (
	"runtime"
	"time"

	"commguard/internal/codec/mp3codec"
	"commguard/internal/dsp"
	"commguard/internal/obs"
	"commguard/internal/ppu"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// Kernel microbenchmarks behind `cmd/experiments -benchjson` /
// -benchkernels: ns/item through a real engine pipeline
// (source -> kernel -> sink) for each compute kernel under three firing
// paths — per-item (batch transit stripped, every item through the
// shims), batch (stream.BatchKernel whole-firing path), and abft (the
// checksummed batch path behind sim.ABFT). The artifact
// (BENCH_kernels.json) tracks the kernel perf trajectory across PRs the
// way BENCH_hotpath.json tracks raw queue transit.

// KernelVariant is one (kernel, firing path, GOMAXPROCS) measurement.
type KernelVariant struct {
	Kernel     string  `json:"kernel"`
	Variant    string  `json:"variant"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NsPerItem  float64 `json:"ns_per_item"`
	Items      int     `json:"items"`
}

// KernelBenchResult is the BENCH_kernels.json payload.
type KernelBenchResult struct {
	Manifest obs.Manifest    `json:"manifest"`
	Profile  string          `json:"profile"`
	Variants []KernelVariant `json:"variants"`
}

// kernelStrip hides the batch capability of a transport's ports, forcing
// the engine onto the per-item firing path (the pre-batch baseline).
type kernelStrip struct{ inner stream.Transport }

type kernelOut struct{ stream.OutPort }
type kernelIn struct{ stream.InPort }

func (t kernelStrip) Wire(e *stream.Edge, prod, cons *ppu.Core) (stream.OutPort, stream.InPort, *queue.Queue, error) {
	op, ip, q, err := t.inner.Wire(e, prod, cons)
	return kernelOut{op}, kernelIn{ip}, q, err
}

// kernelSpec defines one benchmarked kernel: a builder returning the
// pipeline filter for a firing-path variant, plus rates and item count.
type kernelSpec struct {
	name     string
	popRate  int
	pushRate int
	items    int
	// filter builds a fresh kernel filter; abft selects the checksummed
	// form (only consulted by the "abft" variant).
	filter func(abft bool) stream.Filter
}

// kernelSpecs builds the benchmark set. Item counts keep each variant in
// the milliseconds range at full profile; quick divides by 8.
func kernelSpecs(quick bool) []kernelSpec {
	div := 1
	if quick {
		div = 8
	}
	return []kernelSpec{
		{
			name: "dct8", popRate: 8, pushRate: 8, items: (1 << 17) / div,
			filter: func(abft bool) stream.Filter {
				return blockFilter("dct8", 8, 8, 150, abft, func(y, x []float64) {
					dsp.DCT8((*[8]float64)(y), (*[8]float64)(x))
				}, nil)
			},
		},
		{
			name: "dct2d", popRate: 64, pushRate: 64, items: (1 << 17) / div,
			filter: func(abft bool) stream.Filter {
				return blockFilter("dct2d", 64, 64, 1200, abft, func(y, x []float64) {
					copy(y, x)
					dsp.DCT2D((*[64]float64)(y))
				}, nil)
			},
		},
		{
			name: "fir", popRate: 256, pushRate: 256, items: (1 << 17) / div,
			filter: func(abft bool) stream.Filter {
				fir := dsp.MustNewFIR(dsp.LowPassTaps(31, 0.2))
				return blockFilter("fir", 256, 256, 3600, abft, fir.ProcessBatch, func(ctx *stream.Ctx) {
					for i := 0; i < 256; i++ {
						ctx.PushF32(0, float32(fir.Process(float64(ctx.PopF32(0)))))
					}
				})
			},
		},
		{
			name: "mdct", popRate: 2 * mp3codec.N, pushRate: mp3codec.N, items: (1 << 16) / div,
			filter: func(abft bool) stream.Filter {
				return blockFilter("mdct", 2*mp3codec.N, mp3codec.N, 20000, abft, func(y, x []float64) {
					mp3codec.MDCT((*[2 * mp3codec.N]float64)(x), (*[mp3codec.N]float64)(y))
				}, nil)
			},
		},
	}
}

// blockFilter builds a kernel filter around a block transform from one
// firing's pop-rate inputs x to its push-rate outputs y, over float32
// items. Every firing path runs the same transform: per-item pops and
// pushes each item through the ctx shims (perItem, when set, replaces
// that firing), batch converts the flat buffers, and the abft form fuses
// the output checksum into the batch conversion.
func blockFilter(name string, pop, push, cost int, abft bool, block func(y, x []float64), perItem func(ctx *stream.Ctx)) stream.Filter {
	x, y := make([]float64, pop), make([]float64, push)
	if perItem == nil {
		perItem = func(ctx *stream.Ctx) {
			for i := range x {
				x[i] = float64(ctx.PopF32(0))
			}
			block(y, x)
			for _, v := range y {
				ctx.PushF32(0, float32(v))
			}
		}
	}
	// load converts one firing's input buffer (resliced to the pop rate so
	// the loop runs without bounds checks) and runs the transform.
	load := func(in []uint32) {
		in = in[:len(x)]
		for i := range x {
			x[i] = float64(stream.BitsF32(in[i]))
		}
		block(y, x)
	}
	f := stream.NewFuncFilter(name, pop, push, cost, perItem).Batch(func(in, out [][]uint32) {
		load(in[0])
		ob := out[0][:len(y)]
		for i, v := range y {
			ob[i] = stream.F32Bits(float32(v))
		}
	})
	if !abft {
		return f
	}
	return f.ABFT(func(in, out [][]uint32) float64 {
		load(in[0])
		ob := out[0][:len(y)]
		s := 0.0
		for i, v := range y {
			yf := float32(v)
			ob[i] = stream.F32Bits(yf)
			s += float64(yf)
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumF32(out[0]) })
}

// kernelVariants is the firing-path axis of the benchmark matrix.
var kernelVariants = []string{"per-item", "batch", "abft"}

// kernelReps is how many times each (kernel, variant) pipeline is timed;
// the best rep is recorded, which filters scheduler and hypervisor-steal
// noise the same way testing.B's iteration scaling does. Reps round-robin
// across the whole (kernel, variant) matrix rather than repeating one
// cell back-to-back, so a sustained interference burst inflates one rep
// of every cell instead of every rep of one cell.
const kernelReps = 7

// runKernelVariantOnce times one (kernel, variant) pipeline: items
// samples through source -> kernel -> sink on the deterministic
// sequential engine, returning ns per kernel input item.
func runKernelVariantOnce(spec kernelSpec, variant string) (float64, error) {
	tape := make([]uint32, spec.items)
	for i := range tape {
		tape[i] = stream.F32Bits(float32(i%509) / 509)
	}
	g := stream.NewGraph()
	filt := spec.filter(variant == "abft")
	sink := stream.NewSink("snk", spec.pushRate)
	if _, err := g.Chain(stream.NewSource("src", spec.popRate, tape), filt, sink); err != nil {
		return 0, err
	}
	var tr stream.Transport = &stream.PlainTransport{Queue: hotpathQueueConfig()}
	if variant == "per-item" {
		tr = kernelStrip{inner: tr}
	}
	eng, err := stream.NewEngine(g, stream.EngineConfig{
		Transport: tr,
		ABFT:      variant == "abft",
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := eng.RunSequential(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(spec.items), nil
}

// KernelBench measures every kernel under every firing path at each
// GOMAXPROCS level (1 and the machine's setting, when they differ).
func KernelBench(o Options) (*KernelBenchResult, error) {
	res := &KernelBenchResult{Profile: "full", Manifest: obs.NewManifest()}
	res.Manifest.ConfigHash = obs.ConfigHash(hotpathQueueConfig())
	if o.Quick {
		res.Profile = "quick"
	}
	specs := kernelSpecs(o.Quick)
	defaultProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(defaultProcs)
	for _, procs := range gomaxprocsLevels() {
		runtime.GOMAXPROCS(procs)
		best := map[[2]string]float64{}
		for r := 0; r < kernelReps; r++ {
			for _, spec := range specs {
				for _, variant := range kernelVariants {
					// Collect between reps so a GC cycle triggered by graph and
					// queue setup doesn't land inside the timed region.
					runtime.GC()
					ns, err := runKernelVariantOnce(spec, variant)
					if err != nil {
						return nil, err
					}
					k := [2]string{spec.name, variant}
					if cur, ok := best[k]; !ok || ns < cur {
						best[k] = ns
					}
				}
			}
		}
		for _, spec := range specs {
			for _, variant := range kernelVariants {
				res.Variants = append(res.Variants, KernelVariant{
					Kernel:     spec.name,
					Variant:    variant,
					GOMAXPROCS: procs,
					NsPerItem:  best[[2]string{spec.name, variant}],
					Items:      spec.items,
				})
			}
		}
	}
	return res, nil
}

// gomaxprocsLevels returns the GOMAXPROCS settings the benches run at:
// always 1, plus the machine's configured setting when it differs — so
// the recorded manifests reflect both the serialized and the native
// parallelism of the machine instead of silently pinning one.
func gomaxprocsLevels() []int {
	levels := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		levels = append(levels, n)
	}
	return levels
}

// WriteKernelBenchJSON runs KernelBench and writes the result to path.
func WriteKernelBenchJSON(path string, o Options) (*KernelBenchResult, error) {
	res, err := KernelBench(o)
	if err != nil {
		return nil, err
	}
	return res, writeJSON(path, res)
}

// Render prints a per-kernel comparison of the three firing paths.
func (r *KernelBenchResult) Render(w func(format string, a ...any)) {
	type key struct {
		kernel string
		procs  int
	}
	byKernel := map[key]map[string]float64{}
	var order []key
	for _, v := range r.Variants {
		k := key{v.Kernel, v.GOMAXPROCS}
		if byKernel[k] == nil {
			byKernel[k] = map[string]float64{}
			order = append(order, k)
		}
		byKernel[k][v.Variant] = v.NsPerItem
	}
	w("%-8s %5s %12s %12s %12s %8s %8s\n",
		"kernel", "procs", "per-item", "batch", "abft", "speedup", "abft-ovh")
	for _, k := range order {
		m := byKernel[k]
		speedup, ovh := 0.0, 0.0
		if m["batch"] > 0 {
			speedup = m["per-item"] / m["batch"]
			ovh = (m["abft"] - m["batch"]) / m["batch"]
		}
		w("%-8s %5d %9.1f ns %9.1f ns %9.1f ns %7.2fx %+7.1f%%\n",
			k.kernel, k.procs, m["per-item"], m["batch"], m["abft"], speedup, 100*ovh)
	}
}
