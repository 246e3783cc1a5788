package dsp_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"commguard/internal/codec/jpegcodec"
	"commguard/internal/dsp"
)

// refIDCT8 is the textbook loop IDCT8 replaced: one output at a time,
// recomputing alpha(k)*src[k] per term, over a cosine table in its natural
// [k][n] layout built here independently of the package's. IDCT8 may
// reorder its loop nest but must add, for every output, the same products
// in the same order from 0.0, so it is compared bit for bit
// (Float64bits), not within a tolerance: golden digests, journaled results
// and sequential figures all hash these bits.
func refIDCT8(dst, src *[8]float64) {
	for n := 0; n < 8; n++ {
		sum := 0.0
		for k := 0; k < 8; k++ {
			sum += refAlpha(k) * src[k] * refDCTCos[k][n]
		}
		dst[n] = 0.5 * sum
	}
}

// refDCTCos[k][n] = cos(pi * k * (2n+1) / 16).
var refDCTCos = func() *[8][8]float64 {
	var c [8][8]float64
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			c[k][n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / 16)
		}
	}
	return &c
}()

func refAlpha(k int) float64 {
	if k == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as equal: which payload an add of two NaNs keeps is left open by
// IEEE 754 and follows the operand order the compiler picks (a
// coverage-instrumented fuzz build picks differently). The jpeg decode
// graph replaces NaN and Inf items before the transform, and float32-range
// inputs cannot overflow a float64 sum, so no NaN reaches its output.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkIDCT8 reports the first output whose bits differ from the reference.
func checkIDCT8(t *testing.T, name string, src *[8]float64) {
	t.Helper()
	var got, want [8]float64
	dsp.IDCT8(&got, src)
	refIDCT8(&want, src)
	for n := range want {
		if !sameBits(got[n], want[n]) {
			t.Fatalf("%s: IDCT8(%v) out[%d] = %v (%#x), reference %v (%#x)",
				name, *src, n, got[n], math.Float64bits(got[n]), want[n], math.Float64bits(want[n]))
		}
	}
}

// idct2DInputs calls each with the 16 vectors IDCT2D hands IDCT8 for
// block: its columns, then the rows of the (reference) column pass.
func idct2DInputs(block *[64]float64, each func(v *[8]float64)) {
	var v, tmp [8]float64
	var stage [64]float64
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			v[r] = block[r*8+c]
		}
		each(&v)
		refIDCT8(&tmp, &v)
		for r := 0; r < 8; r++ {
			stage[r*8+c] = tmp[r]
		}
	}
	for r := 0; r < 8; r++ {
		copy(v[:], stage[r*8:r*8+8])
		each(&v)
	}
}

var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 * 0.75, -0x1p-1022 * 0.75,
	0x1p-1022, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5,
}

func TestIDCT8MatchesReference(t *testing.T) {
	// The jpeg workload's coefficient blocks, dequantized, both as float64
	// and rounded to the float32 items the decode graph carries.
	img := jpegcodec.TestImage(640, 192)
	data, err := jpegcodec.Encode(img, 75)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := jpegcodec.DecodeCoeffs(data)
	if err != nil {
		t.Fatal(err)
	}
	lq, cq := jpegcodec.QuantTables(cs.Quality)
	var block [64]float64
	for b := 0; b*64 < len(cs.Coeffs); b++ {
		quant := &lq
		if b%3 > 0 {
			quant = &cq
		}
		jpegcodec.DequantizeBlock(cs.Coeffs[b*64:b*64+64], quant, &block)
		idct2DInputs(&block, func(v *[8]float64) { checkIDCT8(t, "tape", v) })
		for i := range block {
			block[i] = float64(float32(block[i]))
		}
		idct2DInputs(&block, func(v *[8]float64) { checkIDCT8(t, "tape-f32", v) })
	}

	rng := rand.New(rand.NewSource(1))
	var v [8]float64
	for i := 0; i < 4096; i++ {
		scale := math.Ldexp(1, rng.Intn(40)-20)
		for k := range v {
			v[k] = float64(float32(rng.NormFloat64() * scale))
		}
		checkIDCT8(t, "random-f32", &v)
		for k := range v {
			v[k] = math.Float64frombits(rng.Uint64())
		}
		checkIDCT8(t, "random-bits", &v)
		for k := range v {
			v[k] = edgeValues[rng.Intn(len(edgeValues))]
		}
		checkIDCT8(t, "edge-mixed", &v)
	}
	for _, e := range edgeValues {
		for k := range v {
			v[k] = e
		}
		checkIDCT8(t, "edge-uniform", &v)
	}

	// Two terms of output n's sum cancel exactly (alpha is 1 for k >= 1):
	// src[k1]*cos[k1][n] and src[k2]*cos[k2][n] are the same product with
	// opposite signs.
	for n := 0; n < 8; n++ {
		for k1 := 1; k1 < 8; k1++ {
			for k2 := k1 + 1; k2 < 8; k2++ {
				v = [8]float64{}
				v[k1] = refDCTCos[k2][n]
				v[k2] = -refDCTCos[k1][n]
				checkIDCT8(t, "cancel", &v)
				var out [8]float64
				dsp.IDCT8(&out, &v)
				if out[n] != 0 {
					t.Fatalf("cancelling input %v: out[%d] = %v, want exactly 0", v, n, out[n])
				}
			}
		}
	}
}

// FuzzIDCT8 reads up to 8 little-endian float64 inputs (missing bytes are 0)
// and compares IDCT8 with the reference bit for bit.
func FuzzIDCT8(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e308)))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil,
		math.Float64bits(math.Copysign(0, -1))), math.Float64bits(math.SmallestNonzeroFloat64)))
	f.Fuzz(func(t *testing.T, b []byte) {
		// A fixed-size copy keeps the decode loop's trip count independent
		// of len(b), which would otherwise read as new coverage.
		var raw [64]byte
		copy(raw[:], b)
		var v [8]float64
		for k := range v {
			v[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		checkIDCT8(t, "fuzz", &v)
	})
}
