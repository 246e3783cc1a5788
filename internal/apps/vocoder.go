package apps

import (
	"fmt"
	"math"

	"commguard/internal/dsp"
	"commguard/internal/stream"
)

// VocoderConfig sizes the channelvocoder benchmark.
type VocoderConfig struct {
	// Bands is the number of analysis/synthesis channels.
	Bands int
	// Samples is the signal length.
	Samples int
}

// DefaultVocoderConfig matches the experiment workload.
func DefaultVocoderConfig() VocoderConfig { return VocoderConfig{Bands: 3, Samples: 4096} }

// NewVocoder builds the channelvocoder benchmark: the input (modulator) is
// duplicated to parallel band channels; each channel band-pass filters it,
// extracts the band envelope (rectify + low-pass), and rings a band-local
// carrier oscillator with that envelope; the joined bands are summed into
// the vocoded output. Quality is the SNR against the error-free run.
func NewVocoder(cfg VocoderConfig) (*Instance, error) {
	if cfg.Bands < 2 || cfg.Samples <= 0 {
		return nil, fmt.Errorf("apps: bad vocoder config %+v", cfg)
	}
	b := cfg.Bands
	g := stream.NewGraph()
	src := g.Add(stream.NewSource("voice-in", 1, sharedTape(cfg, vocoderTape)))
	split := g.Add(stream.NewDuplicateSplitter("analysis", 1, b))
	weights := make([]int, b)
	for i := range weights {
		weights[i] = 1
	}
	join := g.Add(stream.NewRoundRobinJoiner("synthesis", weights...))
	if err := g.Connect(src, 0, split, 0); err != nil {
		return nil, err
	}

	branches := make([][]stream.Filter, b)
	for band := 0; band < b; band++ {
		lo := 0.04 + 0.10*float64(band)
		hi := lo + 0.08
		bp := dsp.MustNewFIR(dsp.BandPassTaps(64, lo, hi))
		envLP := dsp.MustNewFIR(dsp.LowPassTaps(32, 0.01))
		carrierFreq := (lo + hi) / 2
		phase := 0.0
		branches[band] = []stream.Filter{
			stream.NewFuncFilter(fmt.Sprintf("band%d", band), 1, 1, 150, func(in, out [][]uint32) {
				for i, v := range in[0] {
					x := sanitize(float64(stream.BitsF32(v)))
					out[0][i] = stream.F32Bits(float32(bp.Process(x)))
				}
			}),
			stream.NewFuncFilter(fmt.Sprintf("env%d", band), 1, 1, 120, func(in, out [][]uint32) {
				for i, v := range in[0] {
					x := sanitize(float64(stream.BitsF32(v)))
					env := envLP.Process(math.Abs(x))
					phase += 2 * math.Pi * carrierFreq
					if phase > 2*math.Pi {
						phase -= 2 * math.Pi
					}
					out[0][i] = stream.F32Bits(float32(env * math.Sin(phase)))
				}
			}),
		}
	}
	if err := g.SplitJoin(split, join, branches...); err != nil {
		return nil, err
	}

	sum := stream.NewFuncFilter("mix", b, 1, 20, func(in, out [][]uint32) {
		for j := range out[0] {
			acc := 0.0
			for _, v := range in[0][j*b : (j+1)*b] {
				acc += sanitize(float64(stream.BitsF32(v)))
			}
			out[0][j] = stream.F32Bits(float32(clampPCM(acc)))
		}
	})
	sink := stream.NewSink("vocoded-out", 1)
	nSum := g.Add(sum)
	nSink := g.Add(sink)
	if err := g.ChainNodes(join, nSum, nSink); err != nil {
		return nil, err
	}

	return &Instance{
		Name:    "channelvocoder",
		Metric:  "SNR",
		Graph:   g,
		Output:  func() []float64 { return f32TapeToF64(sink.Collected()) },
		Quality: snrQuality,
	}, nil
}

// vocoderTape synthesizes cfg.Samples samples of a "speech-like"
// modulator: tones with a syllabic envelope.
func vocoderTape(cfg VocoderConfig) []uint32 {
	tape := make([]uint32, cfg.Samples)
	for t := range tape {
		ft := float64(t)
		env := 0.5 + 0.5*math.Sin(2*math.Pi*ft/512)
		v := env * (0.5*math.Sin(2*math.Pi*0.03*ft) + 0.3*math.Sin(2*math.Pi*0.11*ft+1.3))
		tape[t] = stream.F32Bits(float32(v))
	}
	return tape
}
