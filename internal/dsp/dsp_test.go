package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTRejectsBadLengths(t *testing.T) {
	if err := FFT(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if err := FFT(make([]float64, 4), make([]float64, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFFTImpulse(t *testing.T) {
	re := make([]float64, 8)
	im := make([]float64, 8)
	re[0] = 1
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	for i := range re {
		if math.Abs(re[i]-1) > 1e-12 || math.Abs(im[i]) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = (%v,%v), want (1,0)", i, re[i], im[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	const bin = 5
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Cos(2 * math.Pi * bin * float64(i) / n)
	}
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	for i := range re {
		m := math.Hypot(re[i], im[i])
		want := 0.0
		if i == bin || i == n-bin {
			want = n / 2
		}
		if math.Abs(m-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want %v", i, m, want)
		}
	}
}

func TestFFTLength1(t *testing.T) {
	re, im := []float64{3}, []float64{0}
	if err := FFT(re, im); err != nil || re[0] != 3 {
		t.Errorf("length-1 FFT: %v %v", re, err)
	}
}

// Property: IFFT(FFT(x)) == x for random signals.
func TestQuickFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(7)) // 4..512
		re := make([]float64, n)
		im := make([]float64, n)
		orig := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			orig[i] = re[i]
		}
		if err := FFT(re, im); err != nil {
			return false
		}
		if err := IFFT(re, im); err != nil {
			return false
		}
		for i := range re {
			if math.Abs(re[i]-orig[i]) > 1e-9 || math.Abs(im[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Parseval: energy is conserved (up to 1/N convention).
func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 128
	re := make([]float64, n)
	im := make([]float64, n)
	timeE := 0.0
	for i := range re {
		re[i] = rng.NormFloat64()
		timeE += re[i] * re[i]
	}
	if err := FFT(re, im); err != nil {
		t.Fatal(err)
	}
	freqE := 0.0
	for i := range re {
		freqE += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-9*timeE {
		t.Errorf("Parseval violated: time %v, freq/N %v", timeE, freqE/float64(n))
	}
}

func TestFIRValidation(t *testing.T) {
	if _, err := NewFIR(nil); err == nil {
		t.Error("empty taps accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewFIR should panic")
		}
	}()
	MustNewFIR(nil)
}

func TestFIRImpulseResponse(t *testing.T) {
	taps := []float64{0.5, 0.25, 0.125}
	f := MustNewFIR(taps)
	in := []float64{1, 0, 0, 0, 0}
	for i, x := range in {
		y := f.Process(x)
		want := 0.0
		if i < len(taps) {
			want = taps[i]
		}
		if math.Abs(y-want) > 1e-12 {
			t.Fatalf("impulse response[%d] = %v, want %v", i, y, want)
		}
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestFIRReset(t *testing.T) {
	f := MustNewFIR([]float64{1, 1})
	f.Process(5)
	f.Reset()
	if y := f.Process(0); y != 0 {
		t.Errorf("after reset, output = %v", y)
	}
}

func testSignal(n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.Sin(0.1*float64(i)) + 0.25*math.Cos(0.37*float64(i))
	}
	return buf
}

// ProcessBatch must match per-sample Process bit-for-bit, including when
// the two forms interleave on the same filter state.
func TestFIRProcessBatchMatchesPerItem(t *testing.T) {
	sig := testSignal(300)
	a := MustNewFIR(LowPassTaps(31, 0.2))
	b := MustNewFIR(LowPassTaps(31, 0.2))

	var perItem []float64
	for _, x := range sig {
		perItem = append(perItem, a.Process(x))
	}

	// Mixed batch sizes plus a per-item stretch, mirroring the engine
	// switching between firing paths.
	var batched []float64
	chunks := []int{64, 1, 7, 100}
	pos := 0
	for _, n := range chunks {
		dst := make([]float64, n)
		b.ProcessBatch(dst, sig[pos:pos+n])
		batched = append(batched, dst...)
		pos += n
	}
	for ; pos < len(sig); pos++ {
		batched = append(batched, b.Process(sig[pos]))
	}

	for i := range perItem {
		if math.Float64bits(perItem[i]) != math.Float64bits(batched[i]) {
			t.Fatalf("sample %d: batch %v != per-item %v", i, batched[i], perItem[i])
		}
	}
}

func TestComplexFIRMatchesRealWhenImagZero(t *testing.T) {
	taps := []float64{0.3, -0.2, 0.7}
	rf := MustNewFIR(taps)
	cf := MustNewComplexFIR(taps, make([]float64, 3))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		x := rng.NormFloat64()
		wr := rf.Process(x)
		yr, yi := cf.Process(x, 0)
		if math.Abs(yr-wr) > 1e-12 || math.Abs(yi) > 1e-12 {
			t.Fatalf("sample %d: complex (%v,%v), real %v", i, yr, yi, wr)
		}
	}
}

func TestComplexFIRRotation(t *testing.T) {
	// A single tap of i rotates the input by 90 degrees.
	cf := MustNewComplexFIR([]float64{0}, []float64{1})
	yr, yi := cf.Process(1, 0)
	if math.Abs(yr) > 1e-12 || math.Abs(yi-1) > 1e-12 {
		t.Errorf("rotation by i: got (%v,%v), want (0,1)", yr, yi)
	}
}

func TestComplexFIRValidation(t *testing.T) {
	if _, err := NewComplexFIR([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched tap arrays accepted")
	}
}

func TestLowPassTapsDCGain(t *testing.T) {
	taps := LowPassTaps(31, 0.2)
	sum := 0.0
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain = %v, want 1", sum)
	}
}

func TestLowPassAttenuatesHighFrequency(t *testing.T) {
	f := MustNewFIR(LowPassTaps(63, 0.1))
	// Feed a high-frequency tone (0.4 of fs) and measure output power.
	var inE, outE float64
	for i := 0; i < 500; i++ {
		x := math.Sin(2 * math.Pi * 0.4 * float64(i))
		y := f.Process(x)
		if i > 100 { // skip transient
			inE += x * x
			outE += y * y
		}
	}
	if outE > inE/100 {
		t.Errorf("high tone attenuated only %vx", inE/outE)
	}
}

func TestBandPassSelectsBand(t *testing.T) {
	f := MustNewFIR(BandPassTaps(127, 0.15, 0.25))
	power := func(freq float64) float64 {
		f.Reset()
		var e float64
		for i := 0; i < 1000; i++ {
			y := f.Process(math.Sin(2 * math.Pi * freq * float64(i)))
			if i > 200 {
				e += y * y
			}
		}
		return e
	}
	inBand := power(0.2)
	below := power(0.05)
	above := power(0.4)
	if inBand < 10*below || inBand < 10*above {
		t.Errorf("band selectivity poor: in=%v below=%v above=%v", inBand, below, above)
	}
}

func TestHannWindowEndpoints(t *testing.T) {
	w := Hann(16)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[15]) > 1e-12 {
		t.Errorf("Hann endpoints = %v, %v", w[0], w[15])
	}
	if w[8] < 0.9 {
		t.Errorf("Hann center = %v", w[8])
	}
}

func TestDCT8ConstantSignal(t *testing.T) {
	var src, dst [8]float64
	for i := range src {
		src[i] = 4
	}
	DCT8(&dst, &src)
	// DC coefficient = 0.5 * 1/sqrt2 * 8*4 = 16/sqrt2*... compute: 0.5*(1/√2)*32 ≈ 11.3137
	want := 0.5 * (1 / math.Sqrt2) * 32
	if math.Abs(dst[0]-want) > 1e-12 {
		t.Errorf("DC = %v, want %v", dst[0], want)
	}
	for i := 1; i < 8; i++ {
		if math.Abs(dst[i]) > 1e-12 {
			t.Errorf("AC[%d] = %v, want 0", i, dst[i])
		}
	}
}

// Property: the 1-D inverse DCT (DCT-III) of DCT8(x) is x.
func TestQuickDCT8RoundTrip(t *testing.T) {
	f := func(vals [8]float64) bool {
		var src [8]float64
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			src[i] = math.Mod(v, 1000)
		}
		var freq, back [8]float64
		DCT8(&freq, &src)
		for n := range back {
			sum := 0.0
			for k, v := range freq {
				sum += alpha(k) * v * dctCos[k][n]
			}
			back[n] = 0.5 * sum
		}
		for i := range src {
			if math.Abs(back[i]-src[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDCT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var block, orig [64]float64
	for i := range block {
		block[i] = rng.Float64()*255 - 128
		orig[i] = block[i]
	}
	DCT2D(&block)
	IDCT2D(&block)
	for i := range block {
		if math.Abs(block[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D round trip diverged at %d: %v vs %v", i, block[i], orig[i])
		}
	}
}

func TestDCT2DEnergyCompaction(t *testing.T) {
	// A smooth gradient block should concentrate energy in low frequencies.
	var block [64]float64
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			block[r*8+c] = float64(r + c)
		}
	}
	DCT2D(&block)
	var low, high float64
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			e := block[r*8+c] * block[r*8+c]
			if r+c <= 2 {
				low += e
			} else {
				high += e
			}
		}
	}
	if low < 100*high {
		t.Errorf("poor energy compaction: low %v, high %v", low, high)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	re := make([]float64, 1024)
	im := make([]float64, 1024)
	for i := range re {
		re[i] = math.Sin(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FFT(re, im)
	}
}

// BitReverse + all FFTStage passes must equal the monolithic FFT.
func TestFFTStageComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 64
	re1 := make([]float64, n)
	im1 := make([]float64, n)
	re2 := make([]float64, n)
	im2 := make([]float64, n)
	for i := 0; i < n; i++ {
		re1[i] = rng.NormFloat64()
		re2[i] = re1[i]
	}
	if err := FFT(re1, im1); err != nil {
		t.Fatal(err)
	}
	if err := BitReverse(re2, im2); err != nil {
		t.Fatal(err)
	}
	for size := 2; size <= n; size <<= 1 {
		if err := FFTStage(re2, im2, size); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(re1[i]-re2[i]) > 1e-9 || math.Abs(im1[i]-im2[i]) > 1e-9 {
			t.Fatalf("staged FFT diverged at %d", i)
		}
	}
}

func TestFFTStageValidation(t *testing.T) {
	if err := FFTStage(make([]float64, 8), make([]float64, 8), 3); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if err := FFTStage(make([]float64, 8), make([]float64, 8), 16); err == nil {
		t.Error("size > n accepted")
	}
	if err := BitReverse(make([]float64, 8), make([]float64, 4)); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := BitReverse(make([]float64, 6), make([]float64, 6)); err == nil {
		t.Error("non-power-of-two length accepted")
	}
}
