package dsp

import (
	"fmt"
	"math"
)

// FIR is a direct-form finite impulse response filter with an internal
// delay line, suitable for sample-at-a-time streaming.
type FIR struct {
	taps  []float64
	delay []float64
	pos   int
	// hist is ProcessBatch's flat-history scratch (T-1 carried samples +
	// the batch), grown on first use and reused across batches.
	hist []float64
}

// NewFIR creates a FIR filter with the given tap coefficients.
func NewFIR(taps []float64) (*FIR, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: FIR needs at least one tap")
	}
	return &FIR{
		taps:  append([]float64(nil), taps...),
		delay: make([]float64, len(taps)),
	}, nil
}

// MustNewFIR is NewFIR for known-good taps.
func MustNewFIR(taps []float64) *FIR {
	f, err := NewFIR(taps)
	if err != nil {
		panic(err)
	}
	return f
}

// Process filters one input sample and returns one output sample.
//
//hotpath:entry
func (f *FIR) Process(x float64) float64 {
	f.delay[f.pos] = x
	acc := 0.0
	// Tap k reads the sample k steps back: delay[pos] down to delay[0],
	// then, wrapped around, delay[len-1] down to delay[pos+1]. Two
	// straight segments keep that tap order without a per-tap wrap test.
	pos, last := f.pos, len(f.delay)-1
	for k, t := range f.taps[:pos+1] {
		acc += t * f.delay[pos-k]
	}
	for k, t := range f.taps[pos+1:] {
		acc += t * f.delay[last-k]
	}
	f.pos++
	if f.pos == len(f.delay) {
		f.pos = 0
	}
	return acc
}

// ProcessBatch filters len(src) samples into dst (len(dst) == len(src))
// with results bit-identical to len(src) Process calls: the flat-history
// inner loop accumulates tap k against the sample k steps back, in the
// same tap order with the same float64 rounding. The delay line is
// updated so Process and ProcessBatch can interleave freely; only the
// per-sample wraparound branch and the circular indexing disappear,
// which is where the batch speedup comes from.
//
//hotpath:entry
func (f *FIR) ProcessBatch(dst, src []float64) {
	f.fillHist(src)
	taps := f.taps
	T := len(taps)
	hist := f.hist
	for i := range dst {
		// w[T-1-k] is the sample k steps back from output i; slicing to
		// exactly T elements lets the compiler drop the inner bounds check.
		w := hist[i : i+T]
		acc := 0.0
		for k, t := range taps {
			acc += t * w[T-1-k]
		}
		dst[i] = acc
	}
	f.reloadDelay(src)
}

// fillHist lays out the delay line plus the incoming batch as one flat
// history: hist[T-1+i] holds src[i] and hist[T-2-m] the sample delivered
// m+1 steps before the batch.
//
//hotpath:entry
func (f *FIR) fillHist(src []float64) {
	T := len(f.taps)
	need := T - 1 + len(src)
	if cap(f.hist) < need {
		//hotpath:ok CS020 one-time scratch growth, reused for every later batch
		f.hist = make([]float64, need)
	}
	f.hist = f.hist[:need]
	j := f.pos
	for i := T - 2; i >= 0; i-- {
		j--
		if j < 0 {
			j = T - 1
		}
		f.hist[i] = f.delay[j]
	}
	copy(f.hist[T-1:], src)
}

// reloadDelay feeds the batch through the circular delay line exactly as
// Process would, so subsequent per-sample calls observe the same state.
//
//hotpath:entry
func (f *FIR) reloadDelay(src []float64) {
	for _, x := range src {
		f.delay[f.pos] = x
		f.pos++
		if f.pos == len(f.delay) {
			f.pos = 0
		}
	}
}

// Reset clears the delay line.
func (f *FIR) Reset() {
	for i := range f.delay {
		f.delay[i] = 0
	}
	f.pos = 0
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.taps) }

// ComplexFIR filters a complex sample stream with complex taps; this is the
// kernel of the complex-fir benchmark.
type ComplexFIR struct {
	tapsRe, tapsIm   []float64
	delayRe, delayIm []float64
	pos              int
}

// NewComplexFIR creates a complex FIR from parallel tap arrays.
func NewComplexFIR(tapsRe, tapsIm []float64) (*ComplexFIR, error) {
	if len(tapsRe) == 0 || len(tapsRe) != len(tapsIm) {
		return nil, fmt.Errorf("dsp: complex FIR taps invalid (%d re, %d im)", len(tapsRe), len(tapsIm))
	}
	return &ComplexFIR{
		tapsRe:  append([]float64(nil), tapsRe...),
		tapsIm:  append([]float64(nil), tapsIm...),
		delayRe: make([]float64, len(tapsRe)),
		delayIm: make([]float64, len(tapsRe)),
	}, nil
}

// MustNewComplexFIR is NewComplexFIR for known-good taps.
func MustNewComplexFIR(tapsRe, tapsIm []float64) *ComplexFIR {
	f, err := NewComplexFIR(tapsRe, tapsIm)
	if err != nil {
		panic(err)
	}
	return f
}

// Process filters one complex sample.
//
//hotpath:entry
func (f *ComplexFIR) Process(xr, xi float64) (yr, yi float64) {
	f.delayRe[f.pos] = xr
	f.delayIm[f.pos] = xi
	idx := f.pos
	for k := range f.tapsRe {
		tr, ti := f.tapsRe[k], f.tapsIm[k]
		dr, di := f.delayRe[idx], f.delayIm[idx]
		yr += tr*dr - ti*di
		yi += tr*di + ti*dr
		idx--
		if idx < 0 {
			idx = len(f.delayRe) - 1
		}
	}
	f.pos++
	if f.pos == len(f.delayRe) {
		f.pos = 0
	}
	return yr, yi
}

// LowPassTaps designs a windowed-sinc low-pass filter with the given
// normalized cutoff (0 < cutoff < 0.5, as a fraction of the sample rate)
// and tap count, using a Hamming window.
func LowPassTaps(n int, cutoff float64) []float64 {
	taps := make([]float64, n)
	mid := float64(n-1) / 2
	sum := 0.0
	for i := range taps {
		x := float64(i) - mid
		var v float64
		if x == 0 {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*x) / (math.Pi * x)
		}
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		taps[i] = v
		sum += v
	}
	// Normalize to unity DC gain.
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// BandPassTaps designs a windowed-sinc band-pass filter between normalized
// frequencies lo and hi.
func BandPassTaps(n int, lo, hi float64) []float64 {
	lp := LowPassTaps(n, hi)
	lp2 := LowPassTaps(n, lo)
	taps := make([]float64, n)
	for i := range taps {
		taps[i] = lp[i] - lp2[i]
	}
	return taps
}

// Hann returns an n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}
