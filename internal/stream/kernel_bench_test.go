package stream_test

import (
	"runtime"
	"testing"

	"commguard/internal/codec/mp3codec"
	"commguard/internal/dsp"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// BenchmarkKernelFiring measures the kernel-firing layer: ns/item through
// a real engine pipeline (source -> kernel -> sink, sequential engine) for
// each compute kernel in its two forms: batch is the plain whole-firing
// kernel (Filter.WorkBatch); abft is the checksummed form behind
// sim.ABFT. One op is one pipeline run of the spec's item count;
// graph and engine construction are outside the timed region.
//
// The committed numbers live in BENCH_micro.txt at the repository root,
// and cmd/benchdiff gates every row of it.
func BenchmarkKernelFiring(b *testing.B) {
	for _, spec := range kernelSpecs() {
		tape := make([]uint32, spec.items)
		for i := range tape {
			tape[i] = stream.F32Bits(float32(i%509) / 509)
		}
		for _, variant := range []string{"batch", "abft"} {
			b.Run(spec.name+"/"+variant, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng := kernelEngine(b, spec, variant, tape)
					// A run allocates a few MB (sink output, firing buffers);
					// collect the previous run's garbage now so no GC cycle
					// lands inside the timed region.
					runtime.GC()
					b.StartTimer()
					if _, err := eng.RunSequential(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.items), "ns/item")
			})
		}
	}
}

// BenchmarkSplitJoin measures firing-bound transit: jpeg's colour
// split-join (Fig. 1) on the sequential engine, a round-robin splitter
// dealing one item at a time to three rate-1 kernels and a joiner
// merging them back, in the batch and abft kernel forms. Each branch
// fires 1024 times per iteration, so nearly every firing moves one to
// three items and the per-call cost of transit dominates. One op is one
// run of splitJoinItems items, timed like BenchmarkKernelFiring.
func BenchmarkSplitJoin(b *testing.B) {
	tape := make([]uint32, splitJoinItems)
	for i := range tape {
		tape[i] = stream.F32Bits(float32(i%509) / 509)
	}
	for _, variant := range []string{"batch", "abft"} {
		b.Run(variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := splitJoinEngine(b, variant, tape)
				runtime.GC()
				b.StartTimer()
				if _, err := eng.RunSequential(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*splitJoinItems), "ns/item")
		})
	}
}

// splitJoinItems is 64 iterations of 3072 items.
const splitJoinItems = 64 * 3 * 1024

// splitJoinEngine wires src -> rr-splitter(1,1,1) -> three rate-1 kernels
// -> rr-joiner(1,1,1) -> sink over tape.
func splitJoinEngine(b *testing.B, variant string, tape []uint32) *stream.Engine {
	g := stream.NewGraph()
	src := g.Add(stream.NewSource("src", 3*1024, tape))
	split := g.Add(stream.NewRoundRobinSplitter("split", 1, 1, 1))
	join := g.Add(stream.NewRoundRobinJoiner("join", 1, 1, 1))
	snk := g.Add(stream.NewSink("snk", 3*1024))
	var branches [][]stream.Filter
	for c := range 3 {
		scale := 0.25 * float64(c+1)
		branches = append(branches, []stream.Filter{blockFilter("colour", 1, 1, 10, variant, func(y, x []float64) {
			y[0] = x[0]*scale + 0.5
		})})
	}
	if err := g.Connect(src, 0, split, 0); err != nil {
		b.Fatal(err)
	}
	if err := g.SplitJoin(split, join, branches...); err != nil {
		b.Fatal(err)
	}
	if err := g.Connect(join, 0, snk, 0); err != nil {
		b.Fatal(err)
	}
	tr := &stream.PlainTransport{Queue: queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}}
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: tr, ABFT: variant == "abft"})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// kernelEngine wires one (kernel, kernel form) pipeline over tape.
func kernelEngine(b *testing.B, spec kernelSpec, variant string, tape []uint32) *stream.Engine {
	g := stream.NewGraph()
	sink := stream.NewSink("snk", spec.pushRate)
	if _, err := g.Chain(stream.NewSource("src", spec.popRate, tape), spec.filter(variant), sink); err != nil {
		b.Fatal(err)
	}
	tr := &stream.PlainTransport{Queue: queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}}
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: tr, ABFT: variant == "abft"})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// kernelSpec defines one benchmarked kernel: a builder returning the
// pipeline filter for a kernel form, plus rates and item count.
type kernelSpec struct {
	name     string
	popRate  int
	pushRate int
	items    int
	// filter builds a fresh kernel filter of the given kernel form
	// ("batch" or "abft").
	filter func(variant string) stream.Filter
}

// kernelSpecs builds the benchmark set. Item counts keep each pipeline
// run in the milliseconds range.
func kernelSpecs() []kernelSpec {
	return []kernelSpec{
		{
			name: "dct8", popRate: 8, pushRate: 8, items: 1 << 17,
			filter: func(variant string) stream.Filter {
				return blockFilter("dct8", 8, 8, 150, variant, func(y, x []float64) {
					dsp.DCT8((*[8]float64)(y), (*[8]float64)(x))
				})
			},
		},
		{
			name: "dct2d", popRate: 64, pushRate: 64, items: 1 << 17,
			filter: func(variant string) stream.Filter {
				return blockFilter("dct2d", 64, 64, 1200, variant, func(y, x []float64) {
					copy(y, x)
					dsp.DCT2D((*[64]float64)(y))
				})
			},
		},
		{
			name: "fir", popRate: 256, pushRate: 256, items: 1 << 17,
			filter: func(variant string) stream.Filter {
				fir := dsp.MustNewFIR(dsp.LowPassTaps(31, 0.2))
				return blockFilter("fir", 256, 256, 3600, variant, fir.ProcessBatch)
			},
		},
		{
			name: "mdct", popRate: 2 * mp3codec.N, pushRate: mp3codec.N, items: 1 << 16,
			filter: func(variant string) stream.Filter {
				return blockFilter("mdct", 2*mp3codec.N, mp3codec.N, 20000, variant, func(y, x []float64) {
					mp3codec.MDCT((*[2 * mp3codec.N]float64)(x), (*[mp3codec.N]float64)(y))
				})
			},
		},
		// The inverse transforms are the ones the jpeg and mp3 decode
		// graphs run (F2-idct-color, F2-imdct).
		{
			name: "imdct", popRate: mp3codec.N, pushRate: 2 * mp3codec.N, items: 1 << 15,
			filter: func(variant string) stream.Filter {
				return blockFilter("imdct", mp3codec.N, 2*mp3codec.N, 20000, variant, func(y, x []float64) {
					mp3codec.IMDCT((*[mp3codec.N]float64)(x), (*[2 * mp3codec.N]float64)(y))
				})
			},
		},
		{
			name: "idct2d", popRate: 64, pushRate: 64, items: 1 << 17,
			filter: func(variant string) stream.Filter {
				return blockFilter("idct2d", 64, 64, 1200, variant, func(y, x []float64) {
					copy(y, x)
					dsp.IDCT2D((*[64]float64)(y))
				})
			},
		},
	}
}

// blockFilter builds a kernel filter around a block transform from one
// firing's pop-rate inputs x to its push-rate outputs y, over float32
// items. Both kernel forms run the same transform: batch converts the
// flat buffers of each firing it is handed, and the abft form fuses the
// output checksum, carried across firings, into the same conversion.
func blockFilter(name string, pop, push, cost int, variant string, block func(y, x []float64)) stream.Filter {
	x, y := make([]float64, pop), make([]float64, push)
	// load converts firing j's input block (resliced to the pop rate so
	// the loop runs without bounds checks) and runs the transform.
	load := func(in []uint32, j int) {
		in = in[j*pop : (j+1)*pop]
		for i := range x {
			x[i] = float64(stream.BitsF32(in[i]))
		}
		block(y, x)
	}
	if variant == "batch" {
		return stream.NewFuncFilter(name, pop, push, cost, func(in, out [][]uint32) {
			for j := range len(in[0]) / pop {
				load(in[0], j)
				ob := out[0][j*push : (j+1)*push]
				for i, v := range y {
					ob[i] = stream.F32Bits(float32(v))
				}
			}
		})
	}
	return stream.NewABFTFilter(name, pop, push, cost, func(in, out [][]uint32) float64 {
		s := 0.0
		for j := range len(in[0]) / pop {
			load(in[0], j)
			ob := out[0][j*push : (j+1)*push]
			for i, v := range y {
				yf := float32(v)
				ob[i] = stream.F32Bits(yf)
				s += float64(yf)
			}
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumF32(out[0]) })
}
