// Package apps ports the paper's six StreamIt benchmarks (§6) to the
// stream-graph runtime: audiobeamformer, channelvocoder, complex-fir, fft,
// jpeg and mp3. Each benchmark builds its published graph structure with
// static per-firing rates, a deterministic synthetic workload, and an
// output-quality evaluation following the paper's methodology: jpeg and
// mp3 are compared against the original media (PSNR/SNR under both
// algorithmic and error lossiness); the remaining four are compared
// against their own error-free runs (SNR).
package apps

import (
	"math"

	"commguard/internal/metrics"
	"commguard/internal/stream"
)

// Instance is one freshly built benchmark: a graph ready for one engine
// run plus the evaluation hooks. Instances are single-use; build a new one
// per run.
type Instance struct {
	// Name is the benchmark name as the paper spells it.
	Name string
	// Metric is "PSNR" for jpeg, "SNR" otherwise.
	Metric string
	// Graph is the streaming computation, sources preloaded with the
	// workload tape.
	Graph *stream.Graph
	// Output converts the sink's collected tape into comparable samples.
	// Call only after the engine run completes. Non-finite values (which
	// bit-flipped floats can produce) are sanitized to 0.
	Output func() []float64
	// Reference is ground truth for jpeg/mp3 (the original media); nil for
	// the benchmarks that are scored against their own error-free run.
	Reference []float64
	// Quality computes the metric, in dB, of out against ref.
	Quality func(out, ref []float64) float64
}

// Builder names a benchmark and builds fresh instances of it with the
// default experiment workload.
type Builder struct {
	Name string
	New  func() (*Instance, error)
}

// All returns the six benchmarks in the paper's figure order.
func All() []Builder {
	return []Builder{
		{Name: "audiobeamformer", New: func() (*Instance, error) { return NewBeamformer(DefaultBeamformerConfig()) }},
		{Name: "channelvocoder", New: func() (*Instance, error) { return NewVocoder(DefaultVocoderConfig()) }},
		{Name: "complex-fir", New: func() (*Instance, error) { return NewComplexFIR(DefaultComplexFIRConfig()) }},
		{Name: "fft", New: func() (*Instance, error) { return NewFFT(DefaultFFTConfig()) }},
		{Name: "jpeg", New: func() (*Instance, error) { return NewJPEG(DefaultJPEGConfig()) }},
		{Name: "mp3", New: func() (*Instance, error) { return NewMP3(DefaultMP3Config()) }},
	}
}

// AllBuiltin returns every built-in benchmark: the paper's six plus the
// do-all extension (§9). Figure-reproduction experiments iterate All();
// structural tooling (commguard-vet, CI verification) iterates this.
func AllBuiltin() []Builder {
	return append(All(),
		Builder{Name: "doall", New: func() (*Instance, error) { return NewDoAll(DefaultDoAllConfig()) }},
	)
}

// ByName returns the builder for one built-in benchmark, or false.
func ByName(name string) (Builder, bool) {
	for _, b := range AllBuiltin() {
		if b.Name == name {
			return b, true
		}
	}
	return Builder{}, false
}

// sanitize replaces non-finite values (bit-flipped floats) with 0 so
// quality metrics stay defined.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// f32TapeToF64 decodes a sink's collected float tape.
func f32TapeToF64(tape []uint32) []float64 {
	out := make([]float64, len(tape))
	for i, b := range tape {
		out[i] = sanitize(float64(stream.BitsF32(b)))
	}
	return out
}

// snrQuality is the Quality function shared by the SNR-scored benchmarks.
func snrQuality(out, ref []float64) float64 {
	return metrics.SNR(ref, out)
}

// clampByte clamps a float to 0..255 for pixel comparison.
func clampByte(v float64) uint8 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// psnrQuality converts both sides to 8-bit pixels and computes PSNR.
func psnrQuality(out, ref []float64) float64 {
	rb := make([]uint8, len(ref))
	for i, v := range ref {
		rb[i] = clampByte(v)
	}
	tb := make([]uint8, len(out))
	for i, v := range out {
		tb[i] = clampByte(v)
	}
	return metrics.PSNR(rb, tb)
}

// clampPCM saturates an audio sample to the representable PCM range, as
// the 16-bit output stage of a real audio pipeline would; this also keeps
// bit-flipped float garbage from dominating SNR measurements.
func clampPCM(v float64) float64 {
	if v > 2 {
		return 2
	}
	if v < -2 {
		return -2
	}
	return v
}
