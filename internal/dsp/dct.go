package dsp

import "math"

// The 8-point DCT-II/DCT-III pair used by the JPEG codec (and exercised by
// the jpeg benchmark's IDCT stage). Coefficients follow the JPEG
// convention: orthonormal scaling with c(0)=1/sqrt(2).

// dctCos[k][n] is DCT8's table, contiguous in n; idctCos[n][k] is the
// same values transposed for IDCT8, contiguous in k.
var dctCos, idctCos [8][8]float64

func init() {
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			dctCos[k][n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / 16)
			idctCos[n][k] = dctCos[k][n]
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

// IDCT8 computes the 1-D 8-point inverse DCT (DCT-III) of src into dst.
// Each dst[n] is the sum over k, in k order from 0.0, of
// (alpha(k)*src[k])*cos; the scaled inputs are computed once per call.
//
//hotpath:entry
func IDCT8(dst, src *[8]float64) {
	var a [8]float64
	for k := range a {
		a[k] = alpha(k) * src[k]
	}
	for n := range dst {
		row := &idctCos[n]
		sum := 0.0
		for k, v := range a {
			sum += v * row[k]
		}
		dst[n] = 0.5 * sum
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

// IDCT2D computes the 8x8 inverse DCT of block in row-major order, in place.
//
//hotpath:entry
func IDCT2D(block *[64]float64) {
	var col, tmp [8]float64
	var stage [64]float64
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			col[r] = block[r*8+c]
		}
		IDCT8(&tmp, &col)
		for r := 0; r < 8; r++ {
			stage[r*8+c] = tmp[r]
		}
	}
	var row [8]float64
	for r := 0; r < 8; r++ {
		copy(row[:], stage[r*8:r*8+8])
		IDCT8(&tmp, &row)
		copy(block[r*8:r*8+8], tmp[:])
	}
}
