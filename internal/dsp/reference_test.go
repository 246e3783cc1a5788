package dsp_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"commguard/internal/codec/jpegcodec"
	"commguard/internal/dsp"
)

// refIDCT8 is the textbook 1-D inverse DCT: one output at a time,
// recomputing alpha(k)*src[k] per term, over a cosine table in its natural
// [k][n] layout built here independently of the package's.
func refIDCT8(dst, src *[8]float64) {
	for n := 0; n < 8; n++ {
		sum := 0.0
		for k := 0; k < 8; k++ {
			sum += refAlpha(k) * src[k] * refDCTCos[k][n]
		}
		dst[n] = 0.5 * sum
	}
}

// refIDCT2D is the dense 2-D transform IDCT2D replaced: refIDCT8 over every
// column, then over every row of the result. IDCT2D skips zero terms but
// must add, for every output, the same nonzero products in the same order
// from 0.0, so it is compared bit for bit (Float64bits), not within a
// tolerance: golden digests, journaled results and sequential figures all
// hash these bits.
func refIDCT2D(block *[64]float64) {
	var v, tmp [8]float64
	var stage [64]float64
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			v[r] = block[r*8+c]
		}
		refIDCT8(&tmp, &v)
		for r := 0; r < 8; r++ {
			stage[r*8+c] = tmp[r]
		}
	}
	for r := 0; r < 8; r++ {
		copy(v[:], stage[r*8:r*8+8])
		refIDCT8(&tmp, &v)
		copy(block[r*8:r*8+8], tmp[:])
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

// checkIDCT2D reports the first output whose bits differ from the
// reference.
func checkIDCT2D(t *testing.T, name string, block *[64]float64) {
	t.Helper()
	got, want := *block, *block
	dsp.IDCT2D(&got)
	refIDCT2D(&want)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: IDCT2D(%v) out[%d] = %v (%#x), reference %v (%#x)",
				name, *block, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// edgeValues holds the inputs where skipping a term could show: signed
// zeros, subnormals (their products with the smaller cosines underflow to
// ±0; alpha(0) = 1/sqrt2 > 1/2 never rounds a nonzero input to 0 itself),
// the normal/subnormal boundary, and values near overflow.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 * 0.75, -0x1p-1022 * 0.75,
	0x1p-1022, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5,
}

// jpegBlocks returns the jpeg workload's coefficient blocks, dequantized:
// the inputs IDCT2D sees in the decode graph.
func jpegBlocks(tb testing.TB) [][64]float64 {
	img := jpegcodec.TestImage(640, 192)
	data, err := jpegcodec.Encode(img, 75)
	if err != nil {
		tb.Fatal(err)
	}
	cs, err := jpegcodec.DecodeCoeffs(data)
	if err != nil {
		tb.Fatal(err)
	}
	lq, cq := jpegcodec.QuantTables(cs.Quality)
	blocks := make([][64]float64, len(cs.Coeffs)/64)
	for b := range blocks {
		quant := &lq
		if b%3 > 0 {
			quant = &cq
		}
		jpegcodec.DequantizeBlock(cs.Coeffs[b*64:b*64+64], quant, &blocks[b])
	}
	return blocks
}

func TestIDCT2DMatchesReference(t *testing.T) {
	// The jpeg workload's blocks, both as float64 and rounded to the
	// float32 items the decode graph carries.
	var block [64]float64
	for _, b := range jpegBlocks(t) {
		block = b
		checkIDCT2D(t, "tape", &block)
		for i := range block {
			block[i] = float64(float32(block[i]))
		}
		checkIDCT2D(t, "tape-f32", &block)
	}

	// Every nonzero count from 0 to 64, at random positions, drawn as
	// float32 items, as raw bit patterns and from the edge values.
	rng := rand.New(rand.NewSource(1))
	scale := 1.0
	draws := []struct {
		name string
		next func() float64
	}{
		{"random-f32", func() float64 { return float64(float32(rng.NormFloat64() * scale)) }},
		{"random-bits", func() float64 { return math.Float64frombits(rng.Uint64()) }},
		{"edge-mixed", func() float64 { return edgeValues[rng.Intn(len(edgeValues))] }},
	}
	for nz := 0; nz <= 64; nz++ {
		for i := 0; i < 64; i++ {
			scale = math.Ldexp(1, rng.Intn(40)-20)
			for _, draw := range draws {
				block = [64]float64{}
				for _, p := range rng.Perm(64)[:nz] {
					block[p] = draw.next()
				}
				checkIDCT2D(t, draw.name, &block)
			}
		}
	}

	// Each edge value alone at every position, filling the block, and
	// filling the block except for all-zero (and all -0) rows and columns.
	for _, e := range edgeValues {
		for p := range block {
			block = [64]float64{}
			block[p] = e
			checkIDCT2D(t, "edge-single", &block)
		}
		for p := range block {
			block[p] = e
		}
		checkIDCT2D(t, "edge-uniform", &block)
		for _, z := range []float64{0, math.Copysign(0, -1)} {
			for line := 0; line < 8; line++ {
				for p := range block {
					block[p] = e
				}
				for j := 0; j < 8; j++ {
					block[line*8+j] = z
					block[j*8+(7-line)] = z
				}
				checkIDCT2D(t, "edge-zero-lines", &block)
			}
		}
	}

	// Two terms of output n's column sum cancel exactly (alpha is 1 for
	// k >= 1): src[k1]*cos[k1][n] and src[k2]*cos[k2][n] are the same
	// product with opposite signs. The sum is +0, so the row pass sees an
	// all-zero row n and must write +0 across it.
	for n := 0; n < 8; n++ {
		for k1 := 1; k1 < 8; k1++ {
			for k2 := k1 + 1; k2 < 8; k2++ {
				block = [64]float64{}
				block[k1*8] = refDCTCos[k2][n]
				block[k2*8] = -refDCTCos[k1][n]
				checkIDCT2D(t, "cancel", &block)
				out := block
				dsp.IDCT2D(&out)
				for j := 0; j < 8; j++ {
					if b := math.Float64bits(out[n*8+j]); b != 0 {
						t.Fatalf("cancelling column %v: out[%d] bits %#x, want +0", block, n*8+j, b)
					}
				}
			}
		}
	}
}

// FuzzIDCT2D reads up to 64 little-endian float64 inputs (missing bytes are
// 0) and compares IDCT2D with the reference bit for bit.
func FuzzIDCT2D(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e308)))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil,
		math.Float64bits(math.Copysign(0, -1))), math.Float64bits(math.SmallestNonzeroFloat64)))
	f.Fuzz(func(t *testing.T, b []byte) {
		// A fixed-size copy keeps the decode loop's trip count independent
		// of len(b), which would otherwise read as new coverage.
		var raw [512]byte
		copy(raw[:], b)
		var block [64]float64
		for i := range block {
			block[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkIDCT2D(t, "fuzz", &block)
	})
}

// BenchmarkIDCT2D times one 8x8 inverse DCT: ramp is a dense block (every
// coefficient nonzero), jpeg cycles through the jpeg workload's blocks,
// which are sparse.
func BenchmarkIDCT2D(b *testing.B) {
	b.Run("ramp", func(b *testing.B) {
		var block [64]float64
		for i := range block {
			block[i] = float64(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := block
			dsp.IDCT2D(&blk)
		}
	})
	b.Run("jpeg", func(b *testing.B) {
		blocks := jpegBlocks(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := blocks[i%len(blocks)]
			dsp.IDCT2D(&blk)
		}
	})
}
