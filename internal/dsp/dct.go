package dsp

import (
	"math"
	"math/bits"
)

// The 8-point DCT-II/DCT-III pair used by the JPEG codec (and exercised by
// the jpeg benchmark's IDCT stage). Coefficients follow the JPEG
// convention: orthonormal scaling with c(0)=1/sqrt(2).

// dctCos[k][n] = cos(pi*k*(2n+1)/16), contiguous in n.
var dctCos [8][8]float64

func init() {
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			dctCos[k][n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / 16)
		}
	}
}

func alpha(k int) float64 {
	if k == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// DCT8 computes the 1-D 8-point forward DCT-II of src into dst.
//
//hotpath:entry
func DCT8(dst, src *[8]float64) {
	for k := 0; k < 8; k++ {
		sum := 0.0
		for n := 0; n < 8; n++ {
			sum += src[n] * dctCos[k][n]
		}
		dst[k] = 0.5 * alpha(k) * sum
	}
}

// DCT2D computes the 8x8 forward DCT of block in row-major order, in place.
//
//hotpath:entry
func DCT2D(block *[64]float64) {
	var row, tmp [8]float64
	var stage [64]float64
	for r := 0; r < 8; r++ {
		copy(row[:], block[r*8:r*8+8])
		DCT8(&tmp, &row)
		copy(stage[r*8:r*8+8], tmp[:])
	}
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			row[r] = stage[r*8+c]
		}
		DCT8(&tmp, &row)
		for r := 0; r < 8; r++ {
			block[r*8+c] = tmp[r]
		}
	}
}

// IDCT2D computes the 8x8 inverse DCT of block in row-major order, in place:
// the 1-D DCT-III of every column, then of every row. Each 1-D output n is
// 0.5 times the sum over k, in k order from 0.0, of (alpha(k)*x[k])*cos[k][n].
//
// Decoded blocks are sparse (a handful of nonzero coefficients in two or
// three columns), so each pass is an axpy over the nonzero scaled inputs
// only: eight accumulators take v*cos[k][n] for each k with v != 0. This is
// bit-exact with the dense sum. A sum that starts at +0.0 never becomes -0
// (x + -x is +0 in round-to-nearest), so adding a ±0 term never changes its
// bits, and the nonzero terms are still added in k order. A NaN v is
// nonzero and is kept. An all-zero column gives a +0 stage column, which
// the row pass then skips as a whole.
//
//hotpath:entry
func IDCT2D(block *[64]float64) {
	// stage is the column pass's output transposed (stage[c*8+n] is column
	// c's output n), so both passes read their lines with stride 8.
	var stage [64]float64
	cols := idctPass(&stage, block, 0xff)
	idctPass(block, &stage, cols)
}

// idctPass writes dst[l*8+n], the 1-D inverse DCT output n of line l whose
// inputs are src[k*8+l], for every l. Only the k set in ks are read: every
// other src[k*8+l] must be ±0. It returns the set of lines with a nonzero
// scaled input; every other line is written as +0.
func idctPass(dst, src *[64]float64, ks uint8) (lines uint8) {
	for l := 0; l < 8; l++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for m := ks; m != 0; m &= m - 1 {
			k := bits.TrailingZeros8(m)
			v := alpha(k) * src[k*8+l]
			if v == 0 {
				continue
			}
			lines |= 1 << l
			c := &dctCos[k]
			s0 += v * c[0]
			s1 += v * c[1]
			s2 += v * c[2]
			s3 += v * c[3]
			s4 += v * c[4]
			s5 += v * c[5]
			s6 += v * c[6]
			s7 += v * c[7]
		}
		d := (*[8]float64)(dst[l*8 : l*8+8])
		d[0], d[1], d[2], d[3] = 0.5*s0, 0.5*s1, 0.5*s2, 0.5*s3
		d[4], d[5], d[6], d[7] = 0.5*s4, 0.5*s5, 0.5*s6, 0.5*s7
	}
	return lines
}
