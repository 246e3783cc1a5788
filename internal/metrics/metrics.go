// Package metrics implements the output-quality measures of the paper's
// evaluation (§6): signal-to-noise ratio (SNR) for audio and 1-D streams,
// peak signal-to-noise ratio (PSNR) for images, and the data-loss ratio of
// Fig. 8, plus small statistics helpers for multi-seed experiments.
package metrics

import (
	"fmt"
	"math"
)

// SNR returns the signal-to-noise ratio, in dB, of test against the
// reference signal: 10*log10(sum(ref^2) / sum((ref-test)^2)). If the two
// signals are identical it returns +Inf; if the reference is all-zero it
// returns NaN (undefined). Slices of different lengths are compared over
// the shorter prefix with the excess counted as pure noise, so truncated
// outputs are penalized rather than rejected.
func SNR(ref, test []float64) float64 {
	n := len(ref)
	if len(test) < n {
		n = len(test)
	}
	var sig, noise float64
	for i := 0; i < n; i++ {
		sig += ref[i] * ref[i]
		d := ref[i] - test[i]
		noise += d * d
	}
	for i := n; i < len(ref); i++ {
		sig += ref[i] * ref[i]
		noise += ref[i] * ref[i]
	}
	if sig == 0 {
		return math.NaN()
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/noise)
}

// SNR32 is SNR over float32 slices (the stream item type).
func SNR32(ref, test []float32) float64 {
	return SNR(toF64(ref), toF64(test))
}

func toF64(x []float32) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// PSNR returns the peak signal-to-noise ratio, in dB, between two 8-bit
// images given as flat pixel slices: 10*log10(255^2 / MSE). Identical
// images give +Inf. Length mismatches are treated like SNR: the missing
// tail counts as maximal error.
func PSNR(ref, test []uint8) float64 {
	if len(ref) == 0 {
		return math.NaN()
	}
	n := len(ref)
	if len(test) < n {
		n = len(test)
	}
	var se float64
	for i := 0; i < n; i++ {
		d := float64(ref[i]) - float64(test[i])
		se += d * d
	}
	se += 255 * 255 * float64(len(ref)-n)
	return PSNRFromSquaredError(se, len(ref))
}

// PSNRFromSquaredError is PSNR's last step, for callers that sum the
// squared 8-bit pixel errors themselves: 10*log10(255^2 / (se/n)), and
// +Inf when se is 0. n is the reference length, at least 1.
func PSNRFromSquaredError(se float64, n int) float64 {
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(n)
	return 10 * math.Log10(255*255/mse)
}

// DataLossRatio is Fig. 8's measure: padded+discarded bytes over accepted
// bytes. Items are 4-byte words, so the ratio is identical in items.
func DataLossRatio(lostItems, acceptedItems uint64) float64 {
	if acceptedItems == 0 {
		if lostItems == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(lostItems) / float64(acceptedItems)
}

// Summary holds the mean and standard deviation of a sample, as reported
// by the paper's error bars ("For every MTBE, we ran the application 5
// times using different random number generator seeds").
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes sample statistics. Infinite values are clamped to
// the provided cap before averaging (error-free runs have infinite SNR;
// the paper plots them at the error-free quality level).
func Summarize(samples []float64, infCap float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := Summary{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	clamped := make([]float64, len(samples))
	for i, v := range samples {
		if math.IsInf(v, 1) || v > infCap {
			v = infCap
		}
		clamped[i] = v
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(clamped))
	if len(clamped) > 1 {
		var ss float64
		for _, v := range clamped {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(clamped)-1))
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d, min=%.2f, max=%.2f)", s.Mean, s.StdDev, s.N, s.Min, s.Max)
}

// GeoMean returns the geometric mean of positive values (used for the
// "GMean" bars of Figs. 12–14). Non-positive values are skipped.
func GeoMean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
