package apps

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"commguard/internal/codec/jpegcodec"
	"commguard/internal/codec/mp3codec"
	"commguard/internal/dsp"
	"commguard/internal/metrics"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

func runErrorFree(t testing.TB, inst *Instance) []float64 {
	t.Helper()
	qcfg := queue.Config{WorkingSets: 4, WorkingSetUnits: 256, ProtectPointers: true, Timeout: 2 * time.Second}
	eng, err := stream.NewEngine(inst.Graph, stream.EngineConfig{Transport: &stream.PlainTransport{Queue: qcfg}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return inst.Output()
}

func TestAllRegistryBuilds(t *testing.T) {
	builders := All()
	if len(builders) != 6 {
		t.Fatalf("registry has %d benchmarks, want 6", len(builders))
	}
	names := map[string]bool{}
	for _, b := range builders {
		inst, err := b.New()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if inst.Name != b.Name {
			t.Errorf("instance name %q != builder name %q", inst.Name, b.Name)
		}
		if err := inst.Graph.Validate(); err != nil {
			t.Errorf("%s graph invalid: %v", b.Name, err)
		}
		if _, err := stream.Solve(inst.Graph); err != nil {
			t.Errorf("%s graph unschedulable: %v", b.Name, err)
		}
		names[b.Name] = true
	}
	for _, want := range []string{"audiobeamformer", "channelvocoder", "complex-fir", "fft", "jpeg", "mp3"} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
	if _, ok := ByName("jpeg"); !ok {
		t.Error("ByName(jpeg) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if n := len(AllBuiltin()); n != 7 {
		t.Errorf("AllBuiltin has %d benchmarks, want 7", n)
	}
	if got := BuiltinNames(); len(got) != 7 || got[6] != "doall" {
		t.Errorf("BuiltinNames() = %v, want the seven AllBuiltin names", got)
	}
	for _, name := range BuiltinNames() {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed for a BuiltinNames entry", name)
		}
	}
	if b, ok := ByName("doall"); !ok {
		t.Error("ByName(doall) failed")
	} else if inst, err := b.New(); err != nil || inst.Name != "doall" {
		t.Errorf("doall builder: inst=%v err=%v", inst, err)
	}
}

// The jpeg stream graph has the paper's structure: 10 nodes and the
// F6/F7 rates of Fig. 2 (192 push, 15360 pop at default width 640).
func TestJPEGGraphMatchesPaperStructure(t *testing.T) {
	inst, err := NewJPEG(DefaultJPEGConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(inst.Graph.Nodes); n != 10 {
		t.Errorf("jpeg graph has %d nodes, want 10 (Fig. 1)", n)
	}
	sinks := inst.Graph.Sinks()
	if len(sinks) != 1 {
		t.Fatalf("jpeg graph has %d sinks", len(sinks))
	}
	if rate := sinks[0].F.PopRates()[0]; rate != 15360 {
		t.Errorf("sink pop rate = %d, want 15360 (Fig. 2)", rate)
	}
	s, err := stream.Solve(inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// 80 MCU firings upstream per sink firing.
	if m := s.Multiplicity[inst.Graph.Nodes[0].ID]; m != 80 {
		t.Errorf("source multiplicity = %d, want 80", m)
	}
}

// Error-free streaming jpeg decode must be bit-exact against the
// monolithic reference decoder, i.e. PSNR(stream output vs direct decode)
// is infinite and PSNR vs the original equals the codec baseline.
func TestJPEGErrorFreeMatchesReferenceDecode(t *testing.T) {
	cfg := JPEGConfig{W: 64, H: 32, Quality: 75}
	inst, err := NewJPEG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)

	img := jpegcodec.TestImage(cfg.W, cfg.H)
	data, err := jpegcodec.Encode(img, cfg.Quality)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := jpegcodec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ref.Pix) {
		t.Fatalf("output %d samples, want %d", len(out), len(ref.Pix))
	}
	for i := range out {
		if uint8(out[i]) != ref.Pix[i] {
			t.Fatalf("stream decode differs from reference at %d: %v vs %d", i, out[i], ref.Pix[i])
		}
	}
	q := inst.Quality(out, inst.Reference)
	if q < 28 || q > 60 {
		t.Errorf("error-free PSNR vs original = %.2f dB, want lossy-compression range", q)
	}
}

// imageRaster is jpeg's Output built the old way: MCU by MCU into a
// jpegcodec.Image (items clamped to 255, a short tape zero-filled), then
// converted to floats.
func imageRaster(tape []uint32, w, h int) []float64 {
	img := jpegcodec.NewImage(w, h)
	var rgb [192]uint8
	for m := 0; m < (w/8)*(h/8); m++ {
		for i := range rgb {
			var v uint32
			if m*192+i < len(tape) {
				v = tape[m*192+i]
			}
			rgb[i] = uint8(min(v, 255))
		}
		jpegcodec.PlaceMCU(img, m, &rgb)
	}
	pix := make([]float64, len(img.Pix))
	for i, p := range img.Pix {
		pix[i] = float64(p)
	}
	return pix
}

// jpeg's Output lays the sink tape straight into the float raster; it must
// equal the image path bit for bit on the decoded tape, on tapes a fault
// left short or long, and on items above 255, in one allocation.
func TestJPEGOutputMatchesImagePath(t *testing.T) {
	cfg := DefaultJPEGConfig()
	inst, err := NewJPEG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)
	tape := inst.Graph.Sinks()[0].F.(*stream.Sink).Collected()
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if want := imageRaster(tape, cfg.W, cfg.H); !slices.EqualFunc(out, want, sameBits) {
		t.Fatal("Output differs from the image path on the decoded tape")
	}
	if avg := testing.AllocsPerRun(10, func() { inst.Output() }); avg != 1 {
		t.Errorf("Output: %.1f allocs/run, want 1", avg)
	}

	r := rand.New(rand.NewSource(1))
	hot := slices.Clone(tape)
	for i := range hot {
		switch r.Intn(4) {
		case 0:
			hot[i] = r.Uint32()
		case 1:
			hot[i] = 256 + uint32(r.Intn(4))
		}
	}
	long := append(slices.Clone(tape), 7, 300, 9)
	cases := []struct {
		name string
		w, h int
		tape []uint32
	}{
		{"full", cfg.W, cfg.H, tape},
		{"short-mid-row", cfg.W, cfg.H, tape[:len(tape)/2+7]},
		{"short-one-mcu-row", cfg.W, cfg.H, tape[:24]},
		{"short-last-item", cfg.W, cfg.H, tape[:len(tape)-1]},
		{"empty", cfg.W, cfg.H, nil},
		{"long", cfg.W, cfg.H, long},
		{"above-255", cfg.W, cfg.H, hot},
		{"above-255-short", cfg.W, cfg.H, hot[:len(hot)-3*192-5]},
		{"narrow-tall", 16, 40, hot[:5000]},
		{"one-mcu", 8, 8, hot[:200]},
	}
	for _, c := range cases {
		got, want := jpegcodec.Raster(c.tape, c.w, c.h), imageRaster(c.tape, c.w, c.h)
		if !slices.EqualFunc(got, want, sameBits) {
			t.Errorf("%s: raster differs from the image path", c.name)
		}
	}
}

// BenchmarkJPEGScore measures what scoring a finished jpeg run costs:
// Output's raster from the sink tape plus Quality against the reference,
// on an error-free run of the default config.
func BenchmarkJPEGScore(b *testing.B) {
	inst, err := NewJPEG(DefaultJPEGConfig())
	if err != nil {
		b.Fatal(err)
	}
	runErrorFree(b, inst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreSink = inst.Quality(inst.Output(), inst.Reference)
	}
}

var scoreSink float64

func TestJPEGConfigValidation(t *testing.T) {
	if _, err := NewJPEG(JPEGConfig{W: 10, H: 8, Quality: 75}); err == nil {
		t.Error("bad width accepted")
	}
}

// Error-free streaming mp3 decode must be bit-exact (as float32) against
// the reference decoder.
func TestMP3ErrorFreeMatchesReferenceDecode(t *testing.T) {
	cfg := MP3Config{Frames: 8}
	inst, err := NewMP3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)

	pcm := mp3codec.TestSignal(cfg.Frames * mp3codec.FrameSamples)
	data, err := mp3codec.Encode(pcm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mp3codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ref) {
		t.Fatalf("output %d samples, want %d", len(out), len(ref))
	}
	// The stream path carries float32 tape items between stages, so it
	// agrees with the float64 reference only to float32 precision: demand
	// near-identity (>= 60 dB), far above the ~10 dB codec baseline.
	if agree := metrics.SNR(ref, out); agree < 60 {
		t.Fatalf("stream decode agrees with reference at only %.1f dB", agree)
	}
	snr := inst.Quality(out, inst.Reference)
	if snr < 6 || snr > 40 {
		t.Errorf("error-free SNR = %.2f dB, want lossy range", snr)
	}
}

func TestMP3ConfigValidation(t *testing.T) {
	if _, err := NewMP3(MP3Config{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
}

// The self-referenced benchmarks: error-free runs must be deterministic
// (same output twice) and produce meaningful signal energy.
func TestSelfReferencedAppsDeterministic(t *testing.T) {
	for _, name := range []string{"audiobeamformer", "channelvocoder", "complex-fir", "fft"} {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		inst1, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		out1 := runErrorFree(t, inst1)
		inst2, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		out2 := runErrorFree(t, inst2)
		if len(out1) == 0 || len(out1) != len(out2) {
			t.Fatalf("%s: outputs %d vs %d samples", name, len(out1), len(out2))
		}
		energy := 0.0
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("%s: nondeterministic at %d", name, i)
			}
			energy += out1[i] * out1[i]
		}
		if energy == 0 {
			t.Errorf("%s: output is all zeros", name)
		}
		if inst1.Reference != nil {
			t.Errorf("%s: unexpected built-in reference", name)
		}
		// Identical runs give infinite SNR.
		if q := inst1.Quality(out1, out2); !math.IsInf(q, 1) {
			t.Errorf("%s: self-SNR = %v, want +Inf", name, q)
		}
	}
}

// The beamformer must actually beamform: the error-free output should
// resemble the target better than a single raw channel does.
func TestBeamformerEnhancesTarget(t *testing.T) {
	cfg := BeamformerConfig{Channels: 4, Samples: 2048, Delay: 3}
	inst, err := NewBeamformer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)
	// Rebuild the clean target (aligned to the last channel).
	target := make([]float64, len(out))
	for t0 := range target {
		ft := float64(t0 - (cfg.Channels-1)*cfg.Delay)
		if ft >= 0 {
			target[t0] = 0.5*math.Sin(2*math.Pi*0.01*ft) + 0.3*math.Sin(2*math.Pi*0.023*ft+0.7)
		}
	}
	// Correlate (skip the filter transient).
	dot, e1, e2 := 0.0, 0.0, 0.0
	for i := 200; i < len(out); i++ {
		dot += out[i] * target[i]
		e1 += out[i] * out[i]
		e2 += target[i] * target[i]
	}
	corr := dot / math.Sqrt(e1*e2)
	if corr < 0.7 {
		t.Errorf("beam output correlates %.3f with target, want >= 0.7", corr)
	}
}

func TestBeamformerConfigValidation(t *testing.T) {
	if _, err := NewBeamformer(BeamformerConfig{Channels: 1, Samples: 10}); err == nil {
		t.Error("single channel accepted")
	}
}

func TestVocoderConfigValidation(t *testing.T) {
	if _, err := NewVocoder(VocoderConfig{Bands: 1, Samples: 10}); err == nil {
		t.Error("single band accepted")
	}
}

func TestComplexFIRConfigValidation(t *testing.T) {
	if _, err := NewComplexFIR(ComplexFIRConfig{Samples: 0}); err == nil {
		t.Error("empty signal accepted")
	}
}

func TestFFTConfigValidation(t *testing.T) {
	if _, err := NewFFT(FFTConfig{Points: 60, Blocks: 2}); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

// The streaming FFT must agree with the monolithic FFT: feed one block and
// compare spectra.
func TestFFTStreamMatchesMonolithic(t *testing.T) {
	cfg := FFTConfig{Points: 32, Blocks: 4}
	inst, err := NewFFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)
	if len(out) != cfg.Points*cfg.Blocks {
		t.Fatalf("got %d magnitudes, want %d", len(out), cfg.Points*cfg.Blocks)
	}
	// Energy check: the dominant tone (0.07 of fs over 32 points -> bin ~2)
	// must dominate block magnitudes.
	maxBin, maxVal := 0, 0.0
	for i := 0; i < cfg.Points/2; i++ {
		if out[i] > maxVal {
			maxVal, maxBin = out[i], i
		}
	}
	if maxBin < 1 || maxBin > 3 {
		t.Errorf("dominant bin = %d, want around 2", maxBin)
	}
}

// The magnitude stage's kernel on a single tone's spectrum: |X[k]| is n/2
// in the tone's two bins and 0 elsewhere, and a value far past the 4n
// display range saturates there. One call runs two firings: the clean
// spectrum, then the same spectrum with one value blown up.
func TestFFTMagnitudeKernel(t *testing.T) {
	const n, bin, blown = 64, 5, 7
	inst, err := NewFFT(FFTConfig{Points: n, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mag stream.Filter
	for _, node := range inst.Graph.Nodes {
		if node.F.Name() == "magnitude" {
			mag = node.F
		}
	}
	re, im := make([]float64, n), make([]float64, n)
	for i := range re {
		re[i] = math.Cos(2 * math.Pi * bin * float64(i) / n)
	}
	if err := dsp.FFT(re, im); err != nil {
		t.Fatal(err)
	}
	in := make([]uint32, 2*2*n)
	for i := range re {
		in[2*i], in[2*i+1] = stream.F32Bits(float32(re[i])), stream.F32Bits(float32(im[i]))
	}
	copy(in[2*n:], in[:2*n])
	in[2*n+2*blown] = stream.F32Bits(1e6)
	out := make([]uint32, 2*n)
	mag.WorkBatch([][]uint32{in}, [][]uint32{out})
	for f := 0; f < 2; f++ {
		for i := 0; i < n; i++ {
			want := 0.0
			switch {
			case i == bin || i == n-bin:
				want = n / 2
			case f == 1 && i == blown:
				want = 4 * n
			}
			if got := float64(stream.BitsF32(out[f*n+i])); math.Abs(got-want) > 1e-4 {
				t.Errorf("firing %d bin %d magnitude = %v, want %v", f, i, got, want)
			}
		}
	}
}

// SNR metric sanity on an actual benchmark: corrupting the collected
// output lowers quality.
func TestQualityDropsWithCorruption(t *testing.T) {
	inst, err := NewComplexFIR(ComplexFIRConfig{Samples: 512, Stages: 2, Taps: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)
	ref := append([]float64(nil), out...)
	clean := inst.Quality(out, ref)
	for i := 0; i < len(out); i += 7 {
		out[i] += 0.5
	}
	dirty := inst.Quality(out, ref)
	if !(dirty < clean) {
		t.Errorf("corruption did not lower quality: %v -> %v", clean, dirty)
	}
	_ = metrics.SNR // keep the import for clarity of intent
}

// The do-all extension (§9): results must be correct cube roots
// error-free, and CommGuard must keep the worker pool aligned under
// injected errors (the ERSA-style programming model).
func TestDoAllComputesCubeRoots(t *testing.T) {
	inst, err := NewDoAll(DoAllConfig{Workers: 4, Tasks: 256, IterationsPerTask: 16})
	if err != nil {
		t.Fatal(err)
	}
	out := runErrorFree(t, inst)
	if len(out) != 256 {
		t.Fatalf("got %d results", len(out))
	}
	for i, got := range out {
		x := 1 + 999*math.Abs(math.Sin(0.37*float64(i)))
		want := math.Cbrt(x)
		if math.Abs(got-want) > 1e-3*want {
			t.Fatalf("task %d: cbrt(%v) = %v, want %v", i, x, got, want)
		}
	}
}

func TestDoAllConfigValidation(t *testing.T) {
	if _, err := NewDoAll(DoAllConfig{Workers: 1, Tasks: 10, IterationsPerTask: 4}); err == nil {
		t.Error("single worker accepted")
	}
	if _, err := NewDoAll(DoAllConfig{Workers: 4, Tasks: 0, IterationsPerTask: 4}); err == nil {
		t.Error("zero tasks accepted")
	}
}

// clampByte is the byte clamp psnrQuality's reference is defined by:
// negatives and NaN to 0, values above 255 to 255, the rest truncated.
func clampByte(v float64) uint8 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// psnrQuality sums the clamped-byte errors in one integer pass; it must
// equal metrics.PSNR over the clampByte'd slices bit for bit (NaN for NaN),
// and allocate nothing.
func TestPSNRQualityMatchesBytes(t *testing.T) {
	bytes := func(xs []float64) []uint8 {
		b := make([]uint8, len(xs))
		for i, v := range xs {
			b[i] = clampByte(v)
		}
		return b
	}
	ref := []float64{0, 12.5, 255, 128, 77.9, 3, 254.99, 40}
	odd := []float64{-3, 300, math.NaN(), math.Inf(1), math.Inf(-1), 255.5, -0.5, 1e300}
	tiny := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 2.2250738585072009e-308,
		-2.2250738585072009e-308, math.Nextafter(1, 0), math.Nextafter(255, 256)}
	// A jpeg-sized worst case: every pixel off by 255, the largest total
	// psnrQuality can meet on the default image.
	zeros := make([]float64, 3*640*192)
	full := make([]float64, len(zeros))
	for i := range full {
		full[i] = 255
	}
	cases := []struct {
		name     string
		out, ref []float64
	}{
		{"equal", []float64{1, 12, 250, 129, 77, 4, 254, 41}, ref},
		{"short-out", ref[:5], ref},
		{"long-out", append(append([]float64{}, odd...), 9, 9), ref},
		{"empty-ref", ref, nil},
		{"identical", ref, ref},
		{"out-of-range", odd, ref},
		{"out-of-range-ref", ref, odd},
		{"zeros-and-subnormals", tiny, ref},
		{"zeros-and-subnormals-ref", ref, tiny},
		{"jpeg-worst-case", zeros, full},
		{"jpeg-worst-case-ref", full, zeros},
		{"jpeg-empty-out", nil, full},
	}
	for _, c := range cases {
		got := psnrQuality(c.out, c.ref)
		want := metrics.PSNR(bytes(c.ref), bytes(c.out))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s: psnrQuality = %v (%#x), metrics.PSNR = %v (%#x)",
				c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := psnrQuality(ref, nil); !math.IsNaN(got) {
		t.Errorf("empty reference: %v, want NaN", got)
	}
	if got := psnrQuality(ref, ref); !math.IsInf(got, 1) {
		t.Errorf("identical inputs: %v, want +Inf", got)
	}
	if avg := testing.AllocsPerRun(100, func() { psnrQuality(odd, ref) }); avg != 0 {
		t.Errorf("%.1f allocs/run, want 0", avg)
	}
}
