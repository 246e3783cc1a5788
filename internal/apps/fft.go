package apps

import (
	"fmt"
	"math"

	"commguard/internal/dsp"
	"commguard/internal/stream"
)

// FFTConfig sizes the fft benchmark.
type FFTConfig struct {
	// Points is the FFT size (power of two).
	Points int
	// Blocks is the number of transforms to stream.
	Blocks int
}

// DefaultFFTConfig matches the experiment workload.
func DefaultFFTConfig() FFTConfig { return FFTConfig{Points: 64, Blocks: 96} }

// NewFFT builds the fft benchmark in the classic StreamIt shape: the
// bit-reversal reordering and each butterfly rank run as separate pipeline
// filters, followed by a magnitude stage. Items are interleaved (re, im)
// pairs; one firing carries one whole transform block. Quality is the SNR
// against the error-free run.
func NewFFT(cfg FFTConfig) (*Instance, error) {
	if !dsp.IsPow2(cfg.Points) || cfg.Points < 4 || cfg.Blocks <= 0 {
		return nil, fmt.Errorf("apps: bad fft config %+v", cfg)
	}
	n := cfg.Points
	rate := 2 * n

	popBlock := func(ctx *stream.Ctx, re, im []float64) {
		for i := 0; i < len(re); i++ {
			re[i] = sanitize(float64(ctx.PopF32(0)))
			im[i] = sanitize(float64(ctx.PopF32(0)))
		}
	}
	pushBlock := func(ctx *stream.Ctx, re, im []float64) {
		for i := 0; i < len(re); i++ {
			ctx.PushF32(0, float32(re[i]))
			ctx.PushF32(0, float32(im[i]))
		}
	}

	g := stream.NewGraph()
	window := dsp.Hann(n)
	filters := []stream.Filter{
		stream.NewSource("samples-in", rate, sharedTape(cfg, fftTape)),
		stream.NewFuncFilter("window", rate, rate, 7*rate, func(ctx *stream.Ctx) {
			for i := 0; i < n; i++ {
				re := sanitize(float64(ctx.PopF32(0)))
				im := sanitize(float64(ctx.PopF32(0)))
				ctx.PushF32(0, float32(re*window[i]))
				ctx.PushF32(0, float32(im*window[i]))
			}
		}),
		stream.NewFuncFilter("bitrev", rate, rate, 4*rate, func(ctx *stream.Ctx) {
			re := make([]float64, n)
			im := make([]float64, n)
			popBlock(ctx, re, im)
			// n is a validated power of two, so this cannot fail; the
			// block is pushed unconditionally to honor the static rate.
			_ = dsp.BitReverse(re, im)
			pushBlock(ctx, re, im)
		}),
	}
	for size := 2; size <= n; size <<= 1 {
		sz := size
		filters = append(filters,
			stream.NewFuncFilter(fmt.Sprintf("butterfly%d", sz), rate, rate, 10*rate, func(ctx *stream.Ctx) {
				re := make([]float64, n)
				im := make([]float64, n)
				popBlock(ctx, re, im)
				_ = dsp.FFTStage(re, im, sz) // cannot fail for validated n
				pushBlock(ctx, re, im)
			}))
	}
	sink := stream.NewSink("spectrum-out", n)
	filters = append(filters,
		stream.NewFuncFilter("magnitude", rate, n, 8*n, func(ctx *stream.Ctx) {
			re := make([]float64, n)
			im := make([]float64, n)
			popBlock(ctx, re, im)
			// Saturate like a fixed-point spectrum display: legitimate
			// magnitudes are bounded by n * max amplitude; bit-flipped
			// float garbage is clipped rather than dominating SNR.
			limit := 4 * float64(n)
			for _, m := range dsp.Magnitudes(re, im) {
				if m > limit {
					m = limit
				}
				ctx.PushF32(0, float32(m))
			}
		}),
		sink,
	)
	if _, err := g.Chain(filters...); err != nil {
		return nil, err
	}

	return &Instance{
		Name:    "fft",
		Metric:  "SNR",
		Graph:   g,
		Output:  func() []float64 { return f32TapeToF64(sink.Collected()) },
		Quality: snrQuality,
	}, nil
}

// fftTape synthesizes cfg.Blocks transforms' worth of a three-tone signal
// as interleaved (re, im) pairs with zero imaginary parts.
func fftTape(cfg FFTConfig) []uint32 {
	n := cfg.Points
	tape := make([]uint32, 0, 2*n*cfg.Blocks)
	for t := 0; t < n*cfg.Blocks; t++ {
		ft := float64(t)
		v := 0.7*math.Sin(2*math.Pi*0.07*ft) + 0.4*math.Sin(2*math.Pi*0.19*ft+0.5) +
			0.1*math.Sin(2*math.Pi*0.33*ft)
		tape = append(tape, stream.F32Bits(float32(v)), stream.F32Bits(0))
	}
	return tape
}
