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
// per run. The graph — every filter with its state (FIR delay lines, the
// mp3 overlap tail, oscillator phases) and the sink — is fresh per
// instance. The source tape and Reference are the workload, built once
// per config and shared read-only by every instance of that config: no
// caller may write to either.
type Instance struct {
	// Name is the benchmark name as the paper spells it.
	Name string
	// Metric is "PSNR" for jpeg, "SNR" otherwise.
	Metric string
	// Graph is the streaming computation, sources preloaded with the
	// shared workload tape.
	Graph *stream.Graph
	// Output converts the sink's collected tape into comparable samples.
	// Call only after the engine run completes. Non-finite values (which
	// bit-flipped floats can produce) are sanitized to 0.
	Output func() []float64
	// Reference is ground truth for jpeg/mp3 (the original media); nil for
	// the benchmarks that are scored against their own error-free run.
	// It is shared with every instance of the same config; read only.
	Reference []float64
	// Quality computes the metric, in dB, of out against ref.
	Quality func(out, ref []float64) float64
}

// Builder names a benchmark and builds fresh instances of it with the
// default experiment workload. The first New in a process generates the
// workload (jpeg and mp3 encode their media then); later calls share it
// and only wire a fresh graph.
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

// BuiltinNames returns the names ByName accepts, in AllBuiltin order.
func BuiltinNames() []string {
	var names []string
	for _, b := range AllBuiltin() {
		names = append(names, b.Name)
	}
	return names
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

// psnrQuality is metrics.PSNR over both sides clamped to 8-bit pixels,
// summed in one pass without materializing the byte slices. The squared
// errors add up in an int64: each is at most 255² = 65,025, so for any
// reference under 1.38e11 values (2^53 / 65,025) every partial sum is an
// integer below 2^53, which a float64 sum of the same terms holds exactly
// too, and the two totals are equal bit for bit.
func psnrQuality(out, ref []float64) float64 {
	if len(ref) == 0 {
		return math.NaN()
	}
	n := min(len(ref), len(out))
	out = out[:n]
	var se int64
	for i, r := range ref[:n] {
		d := pixel(r) - pixel(out[i])
		se += d * d
	}
	se += 255 * 255 * int64(len(ref)-n)
	return metrics.PSNRFromSquaredError(float64(se), len(ref))
}

// pixel clamps v to an 8-bit pixel value: NaN and negatives to 0, values
// above 255 to 255, the rest truncated toward zero. NaN must take the first
// branch: Go leaves int64(NaN) to the platform.
func pixel(v float64) int64 {
	if !(v >= 0) {
		return 0
	}
	if v > 255 {
		return 255
	}
	return int64(v)
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
