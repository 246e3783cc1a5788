// Package mp3codec implements a from-scratch MP3-style perceptual audio
// codec: sine-windowed MDCT with time-domain alias cancellation (the
// transform at the heart of MPEG-1 Layer III), per-band scale factors and
// uniform quantization with a static bit allocation, and a compact frame
// bitstream. It provides a monolithic reference decoder plus the per-stage
// functions the mp3 benchmark's stream filters call, so the streaming
// decode can be verified bit-exact against the reference.
//
// See DESIGN.md substitution 3 for how this stands in for the paper's mp3
// benchmark: it is a real lossy audio codec with a deep multi-stage decode
// pipeline, an error-free SNR baseline around the paper's 9.4 dB, and the
// same catastrophic sensitivity to stream misalignment.
package mp3codec

import (
	"fmt"
	"math"
)

// N is the number of MDCT coefficients per frame; each frame consumes 2N
// time samples overlapped by N with its neighbours.
const N = 256

// FrameSamples is the hop size: each decoded frame contributes N fresh PCM
// samples via overlap-add.
const FrameSamples = N

// window is the sine window, which satisfies the Princen-Bradley condition
// (w[n]^2 + w[n+N]^2 = 1) required for perfect reconstruction.
var window [2 * N]float64

// mdctCos[n][k] caches cos(pi/N * (n + 0.5 + N/2) * (k + 0.5)), laid out
// so that IMDCT's inner loop over k and MDCT's inner loop over k both read
// one contiguous row.
var mdctCos [2 * N][N]float64

func init() {
	for n := 0; n < 2*N; n++ {
		window[n] = math.Sin(math.Pi / (2 * N) * (float64(n) + 0.5))
		for k := 0; k < N; k++ {
			mdctCos[n][k] = math.Cos(math.Pi / N * (float64(n) + 0.5 + N/2) * (float64(k) + 0.5))
		}
	}
}

// MDCT transforms 2N windowed time samples into N coefficients. Each
// out[k] is the sum over n, in n order from 0.0, of x[n]*window[n]*cos.
//
//hotpath:entry
func MDCT(x *[2 * N]float64, out *[N]float64) {
	*out = [N]float64{}
	for n := 0; n < 2*N; n++ {
		xw := x[n] * window[n]
		row := &mdctCos[n]
		for k := range out {
			out[k] += xw * row[k]
		}
	}
}

// IMDCT expands N coefficients into 2N windowed time samples ready for
// overlap-add (includes the 2/N scaling and synthesis window). Each out[n]
// is the sum over k, in k order from 0.0, of coeffs[k]*cos, then scaled;
// four outputs accumulate side by side in independent registers so their
// add chains overlap.
//
//hotpath:entry
func IMDCT(coeffs *[N]float64, out *[2 * N]float64) {
	for n := 0; n < 2*N; n += 4 {
		r0, r1, r2, r3 := &mdctCos[n], &mdctCos[n+1], &mdctCos[n+2], &mdctCos[n+3]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for k, c := range coeffs {
			s0 += c * r0[k]
			s1 += c * r1[k]
			s2 += c * r2[k]
			s3 += c * r3[k]
		}
		out[n] = s0 * (2.0 / N) * window[n]
		out[n+1] = s1 * (2.0 / N) * window[n+1]
		out[n+2] = s2 * (2.0 / N) * window[n+2]
		out[n+3] = s3 * (2.0 / N) * window[n+3]
	}
}

// OverlapAdd combines the second half of the previous frame's IMDCT output
// with the first half of the current one, yielding N PCM samples, and
// returns the tail to carry forward.
//
//hotpath:entry
func OverlapAdd(prevTail *[N]float64, cur *[2 * N]float64, out *[N]float64) {
	for i := 0; i < N; i++ {
		out[i] = prevTail[i] + cur[i]
		prevTail[i] = cur[N+i]
	}
}

// TestSignal synthesizes a deterministic "music-like" mono test signal:
// a chord of harmonically related tones with slow amplitude envelopes and
// a soft noise floor, length n samples in [-1, 1]. It stands in for the
// paper's audio clip (DESIGN.md substitution 5).
func TestSignal(n int) []float64 {
	out := make([]float64, n)
	freqs := []float64{0.011, 0.0165, 0.022, 0.033, 0.044}
	amps := []float64{0.45, 0.3, 0.25, 0.15, 0.1}
	for i := range out {
		t := float64(i)
		env := 0.6 + 0.4*math.Sin(2*math.Pi*t/8192)
		v := 0.0
		for j, f := range freqs {
			v += amps[j] * math.Sin(2*math.Pi*f*t+float64(j))
		}
		// Deterministic pseudo-noise floor.
		v += 0.02 * math.Sin(2*math.Pi*0.41*t) * math.Cos(2*math.Pi*0.29*t+1)
		out[i] = env * v * 0.7
	}
	return out
}

// validateLength checks that a PCM signal divides into whole frames.
func validateLength(n int) error {
	if n <= 0 || n%FrameSamples != 0 {
		return fmt.Errorf("mp3codec: signal length %d is not a positive multiple of %d", n, FrameSamples)
	}
	return nil
}
