package apps

import (
	"fmt"
	"math"

	"commguard/internal/dsp"
	"commguard/internal/stream"
)

// BeamformerConfig sizes the audiobeamformer benchmark.
type BeamformerConfig struct {
	// Channels is the sensor count.
	Channels int
	// Samples is the per-channel signal length.
	Samples int
	// Delay is the per-channel arrival delay of the target signal, in
	// samples (channel c hears the target Delay*c samples late).
	Delay int
}

// DefaultBeamformerConfig matches the experiment workload.
func DefaultBeamformerConfig() BeamformerConfig {
	return BeamformerConfig{Channels: 4, Samples: 4096, Delay: 3}
}

// NewBeamformer builds the audiobeamformer benchmark: a delay-and-sum
// beamformer over a sensor array. The source emits one interleaved sample
// per channel per firing; a round-robin split deals channels to per-channel
// conditioners (compensating delay + low-pass weighting), and a combiner
// sums the aligned channels. Frame computations are per-sample, which is
// why this benchmark has the paper's smallest frames ("threads that have a
// frame size of 1 item", §7.2.3) and its worst header overhead (Fig. 12).
//
// Like the paper, quality is the SNR of an error-prone run against the
// error-free run.
func NewBeamformer(cfg BeamformerConfig) (*Instance, error) {
	if cfg.Channels < 2 || cfg.Samples <= 0 || cfg.Delay < 0 {
		return nil, fmt.Errorf("apps: bad beamformer config %+v", cfg)
	}
	c := cfg.Channels
	g := stream.NewGraph()
	src := g.Add(stream.NewSource("array-in", c, sharedTape(cfg, beamformerTape)))
	weights := make([]int, c)
	for i := range weights {
		weights[i] = 1
	}
	split := g.Add(stream.NewRoundRobinSplitter("deal", weights...))
	join := g.Add(stream.NewRoundRobinJoiner("collect", weights...))
	if err := g.Connect(src, 0, split, 0); err != nil {
		return nil, err
	}

	branches := make([][]stream.Filter, c)
	for ch := 0; ch < c; ch++ {
		// Compensating delay: channel ch is (c-1-ch)*Delay samples early
		// relative to the last channel, so delay it to align.
		delayLen := (c - 1 - ch) * cfg.Delay
		delayLine := make([]float64, delayLen)
		pos := 0
		lp := dsp.MustNewFIR(dsp.LowPassTaps(16, 0.12))
		gain := 1 / float64(c)
		branches[ch] = []stream.Filter{
			stream.NewFuncFilter(fmt.Sprintf("chan%d", ch), 1, 1, 60, func(in, out [][]uint32) {
				for i, v := range in[0] {
					x := sanitize(float64(stream.BitsF32(v)))
					if delayLen > 0 {
						x, delayLine[pos] = delayLine[pos], x
						pos++
						if pos == delayLen {
							pos = 0
						}
					}
					out[0][i] = stream.F32Bits(float32(lp.Process(x) * gain))
				}
			}),
		}
	}
	if err := g.SplitJoin(split, join, branches...); err != nil {
		return nil, err
	}

	sum := stream.NewFuncFilter("sum", c, 1, 20, func(in, out [][]uint32) {
		for j := range out[0] {
			acc := 0.0
			for _, v := range in[0][j*c : (j+1)*c] {
				acc += sanitize(float64(stream.BitsF32(v)))
			}
			out[0][j] = stream.F32Bits(float32(clampPCM(acc)))
		}
	})
	sink := stream.NewSink("beam-out", 1)
	nSum := g.Add(sum)
	nSink := g.Add(sink)
	if err := g.ChainNodes(join, nSum, nSink); err != nil {
		return nil, err
	}

	return &Instance{
		Name:    "audiobeamformer",
		Metric:  "SNR",
		Graph:   g,
		Output:  func() []float64 { return f32TapeToF64(sink.Collected()) },
		Quality: snrQuality,
	}, nil
}

// beamformerTape synthesizes the array input, one interleaved sample per
// channel per time step: a multi-tone target plus per-channel
// deterministic interference, channel c delayed by c*Delay.
func beamformerTape(cfg BeamformerConfig) []uint32 {
	target := func(t int) float64 {
		ft := float64(t)
		return 0.5*math.Sin(2*math.Pi*0.01*ft) + 0.3*math.Sin(2*math.Pi*0.023*ft+0.7)
	}
	tape := make([]uint32, 0, cfg.Channels*cfg.Samples)
	for t := 0; t < cfg.Samples; t++ {
		for ch := 0; ch < cfg.Channels; ch++ {
			v := 0.0
			if idx := t - ch*cfg.Delay; idx >= 0 {
				v = target(idx)
			}
			// Per-channel interference, uncorrelated across channels.
			v += 0.2 * math.Sin(2*math.Pi*0.17*float64(t)+float64(ch)*2.1)
			tape = append(tape, stream.F32Bits(float32(v)))
		}
	}
	return tape
}
