package apps

import (
	"fmt"
	"math"

	"commguard/internal/dsp"
	"commguard/internal/stream"
)

// ComplexFIRConfig sizes the complex-fir benchmark.
type ComplexFIRConfig struct {
	// Samples is the number of complex input samples.
	Samples int
	// Stages is the number of cascaded complex FIR filters.
	Stages int
	// Taps is the tap count of each stage.
	Taps int
}

// DefaultComplexFIRConfig matches the experiment workload. The per-firing
// work is deliberately tiny — the paper reports a median of 33 instructions
// per frame computation for this benchmark (§5.3).
func DefaultComplexFIRConfig() ComplexFIRConfig {
	return ComplexFIRConfig{Samples: 4096, Stages: 4, Taps: 8}
}

// NewComplexFIR builds the complex-fir benchmark: a pipeline of cascaded
// complex-coefficient FIR filters over an interleaved (re, im) sample
// stream. Quality is the SNR against the error-free run.
func NewComplexFIR(cfg ComplexFIRConfig) (*Instance, error) {
	if cfg.Samples <= 0 || cfg.Stages < 1 || cfg.Taps < 1 {
		return nil, fmt.Errorf("apps: bad complex-fir config %+v", cfg)
	}
	g := stream.NewGraph()
	filters := []stream.Filter{stream.NewSource("iq-in", 2, sharedTape(cfg, complexFIRTape))}
	for s := 0; s < cfg.Stages; s++ {
		// Each stage is a frequency-shifted low-pass: taps rotated by a
		// per-stage carrier, the classic complex channelizer building
		// block.
		base := dsp.LowPassTaps(cfg.Taps, 0.2)
		tapsRe := make([]float64, cfg.Taps)
		tapsIm := make([]float64, cfg.Taps)
		shift := 0.05 * float64(s)
		for i, v := range base {
			tapsRe[i] = v * math.Cos(2*math.Pi*shift*float64(i))
			tapsIm[i] = v * math.Sin(2*math.Pi*shift*float64(i))
		}
		cf := dsp.MustNewComplexFIR(tapsRe, tapsIm)
		filters = append(filters,
			stream.NewFuncFilter(fmt.Sprintf("cfir%d", s), 2, 2, 33, func(in, out [][]uint32) {
				src, dst := in[0], out[0]
				for i := 0; i < len(src); i += 2 {
					xr := sanitize(float64(stream.BitsF32(src[i])))
					xi := sanitize(float64(stream.BitsF32(src[i+1])))
					yr, yi := cf.Process(xr, xi)
					dst[i] = stream.F32Bits(float32(yr))
					dst[i+1] = stream.F32Bits(float32(yi))
				}
			}))
	}
	sink := stream.NewSink("iq-out", 2)
	filters = append(filters, sink)
	if _, err := g.Chain(filters...); err != nil {
		return nil, err
	}

	return &Instance{
		Name:    "complex-fir",
		Metric:  "SNR",
		Graph:   g,
		Output:  func() []float64 { return f32TapeToF64(sink.Collected()) },
		Quality: snrQuality,
	}, nil
}

// complexFIRTape synthesizes cfg.Samples samples of a complex chirp
// sweeping through the passbands, as interleaved (re, im) pairs.
func complexFIRTape(cfg ComplexFIRConfig) []uint32 {
	tape := make([]uint32, 0, 2*cfg.Samples)
	for t := 0; t < cfg.Samples; t++ {
		ft := float64(t)
		f := 0.02 + 0.2*ft/float64(cfg.Samples)
		tape = append(tape,
			stream.F32Bits(float32(math.Cos(2*math.Pi*f*ft))),
			stream.F32Bits(float32(math.Sin(2*math.Pi*f*ft))))
	}
	return tape
}
