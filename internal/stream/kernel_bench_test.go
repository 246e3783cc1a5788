package stream_test

import (
	"runtime"
	"testing"

	"commguard/internal/codec/mp3codec"
	"commguard/internal/dsp"
	"commguard/internal/ppu"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// BenchmarkKernelFiring measures the kernel-firing layer: ns/item through
// a real engine pipeline (source -> kernel -> sink, sequential engine) for
// each compute kernel under the three firing paths. per-item strips the
// batch capability so every item goes through the Ctx shims; batch is the
// stream.BatchKernel whole-firing path; abft is the checksummed batch path
// behind sim.ABFT. One op is one pipeline run of the spec's item count;
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
		for _, variant := range []string{"per-item", "batch", "abft"} {
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

// kernelEngine wires one (kernel, firing path) pipeline over tape.
func kernelEngine(b *testing.B, spec kernelSpec, variant string, tape []uint32) *stream.Engine {
	g := stream.NewGraph()
	sink := stream.NewSink("snk", spec.pushRate)
	if _, err := g.Chain(stream.NewSource("src", spec.popRate, tape), spec.filter(variant == "abft"), sink); err != nil {
		b.Fatal(err)
	}
	var tr stream.Transport = &stream.PlainTransport{Queue: queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}}
	if variant == "per-item" {
		tr = kernelStrip{inner: tr}
	}
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: tr, ABFT: variant == "abft"})
	if err != nil {
		b.Fatal(err)
	}
	return eng
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

// kernelSpecs builds the benchmark set. Item counts keep each pipeline
// run in the milliseconds range.
func kernelSpecs() []kernelSpec {
	return []kernelSpec{
		{
			name: "dct8", popRate: 8, pushRate: 8, items: 1 << 17,
			filter: func(abft bool) stream.Filter {
				return blockFilter("dct8", 8, 8, 150, abft, func(y, x []float64) {
					dsp.DCT8((*[8]float64)(y), (*[8]float64)(x))
				}, nil)
			},
		},
		{
			name: "dct2d", popRate: 64, pushRate: 64, items: 1 << 17,
			filter: func(abft bool) stream.Filter {
				return blockFilter("dct2d", 64, 64, 1200, abft, func(y, x []float64) {
					copy(y, x)
					dsp.DCT2D((*[64]float64)(y))
				}, nil)
			},
		},
		{
			name: "fir", popRate: 256, pushRate: 256, items: 1 << 17,
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
			name: "mdct", popRate: 2 * mp3codec.N, pushRate: mp3codec.N, items: 1 << 16,
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
