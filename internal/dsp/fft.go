// Package dsp provides the signal-processing kernels shared by the
// benchmark applications and codecs: radix-2 FFT, FIR filtering, 8-point
// and 8x8 DCT/IDCT, and window functions. All kernels are implemented from
// scratch on float64 for reference accuracy; the streaming filters convert
// to/from the 32-bit tape items at their boundaries.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-place radix-2 decimation-in-time FFT of re/im.
// len(re) == len(im) must be a power of two.
func FFT(re, im []float64) error {
	return fftDir(re, im, false)
}

// IFFT computes the inverse FFT (including the 1/N scaling).
func IFFT(re, im []float64) error {
	return fftDir(re, im, true)
}

func fftDir(re, im []float64, inverse bool) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: FFT length mismatch (%d vs %d)", n, len(im))
	}
	if !IsPow2(n) {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}

	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}

	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				angle := step * float64(k)
				wr, wi := math.Cos(angle), math.Sin(angle)
				i, j := start+k, start+k+half
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j], im[j] = re[i]-tr, im[i]-ti
				re[i], im[i] = re[i]+tr, im[i]+ti
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range re {
			re[i] *= inv
			im[i] *= inv
		}
	}
	return nil
}

// BitReverse applies the bit-reversal permutation to re/im in place
// (the first pass of an iterative radix-2 FFT). Exposed separately so the
// streaming fft benchmark can run it as its own pipeline stage.
func BitReverse(re, im []float64) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: BitReverse length mismatch (%d vs %d)", n, len(im))
	}
	if !IsPow2(n) {
		return fmt.Errorf("dsp: BitReverse length %d is not a power of two", n)
	}
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	return nil
}

// FFTStage performs one butterfly pass of the iterative forward FFT for
// the given butterfly span (size = 2, 4, ..., n). Running BitReverse and
// then FFTStage for every power of two up to n equals FFT. Exposed so the
// streaming fft benchmark can place each pass on its own core.
func FFTStage(re, im []float64, size int) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: FFTStage length mismatch (%d vs %d)", n, len(im))
	}
	if !IsPow2(n) || !IsPow2(size) || size < 2 || size > n {
		return fmt.Errorf("dsp: FFTStage bad size %d for length %d", size, n)
	}
	half := size >> 1
	step := -2 * math.Pi / float64(size)
	for start := 0; start < n; start += size {
		for k := 0; k < half; k++ {
			angle := step * float64(k)
			wr, wi := math.Cos(angle), math.Sin(angle)
			i, j := start+k, start+k+half
			tr := wr*re[j] - wi*im[j]
			ti := wr*im[j] + wi*re[j]
			re[j], im[j] = re[i]-tr, im[i]-ti
			re[i], im[i] = re[i]+tr, im[i]+ti
		}
	}
	return nil
}
