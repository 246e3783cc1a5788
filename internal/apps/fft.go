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

	// Every kernel loops over the blocks of however many firings it is
	// handed. The transform stages work in their own scratch block, which
	// each firing overwrites whole before use.
	g := stream.NewGraph()
	window := dsp.Hann(n)
	bre, bim := make([]float64, n), make([]float64, n)
	filters := []stream.Filter{
		stream.NewSource("samples-in", rate, sharedTape(cfg, fftTape)),
		stream.NewFuncFilter("window", rate, rate, 7*rate, func(in, out [][]uint32) {
			for b := 0; b < len(in[0]); b += rate {
				src, dst := in[0][b:b+rate], out[0][b:b+rate]
				for i := 0; i < n; i++ {
					re := sanitize(float64(stream.BitsF32(src[2*i])))
					im := sanitize(float64(stream.BitsF32(src[2*i+1])))
					dst[2*i] = stream.F32Bits(float32(re * window[i]))
					dst[2*i+1] = stream.F32Bits(float32(im * window[i]))
				}
			}
		}),
		stream.NewFuncFilter("bitrev", rate, rate, 4*rate, func(in, out [][]uint32) {
			for b := 0; b < len(in[0]); b += rate {
				src, dst := in[0][b:b+rate], out[0][b:b+rate]
				for i := range bre {
					bre[i] = sanitize(float64(stream.BitsF32(src[2*i])))
					bim[i] = sanitize(float64(stream.BitsF32(src[2*i+1])))
				}
				// n is a validated power of two, so this cannot fail; the
				// block is pushed unconditionally to honor the static rate.
				_ = dsp.BitReverse(bre, bim)
				for i := range bre {
					dst[2*i] = stream.F32Bits(float32(bre[i]))
					dst[2*i+1] = stream.F32Bits(float32(bim[i]))
				}
			}
		}),
	}
	for size := 2; size <= n; size <<= 1 {
		sz := size
		re, im := make([]float64, n), make([]float64, n)
		filters = append(filters,
			stream.NewFuncFilter(fmt.Sprintf("butterfly%d", sz), rate, rate, 10*rate, func(in, out [][]uint32) {
				for b := 0; b < len(in[0]); b += rate {
					src, dst := in[0][b:b+rate], out[0][b:b+rate]
					for i := range re {
						re[i] = sanitize(float64(stream.BitsF32(src[2*i])))
						im[i] = sanitize(float64(stream.BitsF32(src[2*i+1])))
					}
					_ = dsp.FFTStage(re, im, sz) // cannot fail for validated n
					for i := range re {
						dst[2*i] = stream.F32Bits(float32(re[i]))
						dst[2*i+1] = stream.F32Bits(float32(im[i]))
					}
				}
			}))
	}
	sink := stream.NewSink("spectrum-out", n)
	// Saturate like a fixed-point spectrum display: legitimate magnitudes
	// are bounded by n * max amplitude; bit-flipped float garbage is
	// clipped rather than dominating SNR.
	limit := 4 * float64(n)
	filters = append(filters,
		stream.NewFuncFilter("magnitude", rate, n, 8*n, func(in, out [][]uint32) {
			for b := 0; b*rate < len(in[0]); b++ {
				src, dst := in[0][b*rate:(b+1)*rate], out[0][b*n:(b+1)*n]
				for i := range dst {
					re := sanitize(float64(stream.BitsF32(src[2*i])))
					im := sanitize(float64(stream.BitsF32(src[2*i+1])))
					m := math.Hypot(re, im)
					if m > limit {
						m = limit
					}
					dst[i] = stream.F32Bits(float32(m))
				}
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
