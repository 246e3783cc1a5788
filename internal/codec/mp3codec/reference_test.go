package mp3codec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The references below are the textbook loops MDCT and IMDCT replaced:
// one output at a time, over a cosine table in its natural [k][n] layout,
// built here independently of the package's transposed table. The
// production transforms may reorder their loop nests but must add, for
// every output, the same products in the same order from 0.0, so they
// are compared bit for bit (Float64bits), not within a tolerance: golden
// digests, journaled results and sequential figures all hash these bits.

// refMDCTCos[k][n] = cos(pi/N * (n + 0.5 + N/2) * (k + 0.5)).
var refMDCTCos = func() *[N][2 * N]float64 {
	var c [N][2 * N]float64
	for k := 0; k < N; k++ {
		for n := 0; n < 2*N; n++ {
			c[k][n] = math.Cos(math.Pi / N * (float64(n) + 0.5 + N/2) * (float64(k) + 0.5))
		}
	}
	return &c
}()

func refMDCT(x *[2 * N]float64, out *[N]float64) {
	for k := 0; k < N; k++ {
		sum := 0.0
		row := refMDCTCos[k]
		for n := 0; n < 2*N; n++ {
			sum += x[n] * window[n] * row[n]
		}
		out[k] = sum
	}
}

func refIMDCT(coeffs *[N]float64, out *[2 * N]float64) {
	for n := 0; n < 2*N; n++ {
		sum := 0.0
		for k := 0; k < N; k++ {
			sum += coeffs[k] * refMDCTCos[k][n]
		}
		out[n] = sum * (2.0 / N) * window[n]
	}
}

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as equal: which payload an add of two NaNs keeps is left open by
// IEEE 754 and follows the operand order the compiler picks (a
// coverage-instrumented fuzz build picks differently). The decode graphs
// replace NaN and Inf items before either transform, and float32-range
// inputs cannot overflow a float64 sum, so no NaN reaches their outputs.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkIMDCT reports the first output whose bits differ from the reference.
func checkIMDCT(t *testing.T, name string, coeffs *[N]float64) {
	t.Helper()
	var got, want [2 * N]float64
	IMDCT(coeffs, &got)
	refIMDCT(coeffs, &want)
	for n := range want {
		if !sameBits(got[n], want[n]) {
			t.Fatalf("%s: IMDCT out[%d] = %v (%#x), reference %v (%#x)",
				name, n, got[n], math.Float64bits(got[n]), want[n], math.Float64bits(want[n]))
		}
	}
}

// edgeValues are the float64 values where a reordered or rescaled sum
// shows first: signed zeros, subnormals, values whose products overflow,
// and the extremes of the normal range.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 * 0.75, -0x1p-1022 * 0.75,
	0x1p-1022, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5,
}

// TestIMDCTMatchesReference covers the coefficient frames of the mp3
// workload (as dequantized, and rounded to the float32 items the decode
// graph carries), seeded random frames in the float32 domain and over full
// float64 bit patterns, edge-value frames, and frames whose sum for one
// output cancels to exactly 0.
func TestIMDCTMatchesReference(t *testing.T) {
	data, err := Encode(TestSignal(64 * FrameSamples))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := DecodeCoeffs(data)
	if err != nil {
		t.Fatal(err)
	}
	var c [N]float64
	for f := 0; f < cs.Frames; f++ {
		DequantizeFrame(cs.Items[f*ItemsPerFrame:(f+1)*ItemsPerFrame], &c)
		checkIMDCT(t, "tape", &c)
		for k := range c {
			c[k] = float64(float32(c[k]))
		}
		checkIMDCT(t, "tape-f32", &c)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		scale := math.Ldexp(1, rng.Intn(40)-20)
		for k := range c {
			c[k] = float64(float32(rng.NormFloat64() * scale))
		}
		checkIMDCT(t, "random-f32", &c)
		for k := range c {
			c[k] = math.Float64frombits(rng.Uint64())
		}
		checkIMDCT(t, "random-bits", &c)
	}

	for _, v := range edgeValues {
		for k := range c {
			c[k] = v
		}
		checkIMDCT(t, "edge-uniform", &c)
		for k := range c {
			c[k] = v * float64(1-2*(k&1))
		}
		checkIMDCT(t, "edge-alternating", &c)
	}
	for i := 0; i < 32; i++ {
		for k := range c {
			c[k] = edgeValues[rng.Intn(len(edgeValues))]
		}
		checkIMDCT(t, "edge-mixed", &c)
	}

	// Two terms of output n's sum cancel exactly: c[k1]*cos[k1][n] and
	// c[k2]*cos[k2][n] are the same product with opposite signs.
	for i := 0; i < 32; i++ {
		n := rng.Intn(2 * N)
		k1, k2 := rng.Intn(N), rng.Intn(N)
		if k1 == k2 {
			continue
		}
		c = [N]float64{}
		c[k1] = refMDCTCos[k2][n]
		c[k2] = -refMDCTCos[k1][n]
		checkIMDCT(t, "cancel", &c)
		var out [2 * N]float64
		IMDCT(&c, &out)
		if out[n] != 0 {
			t.Fatalf("cancelling frame: out[%d] = %v, want exactly 0", n, out[n])
		}
	}
}

func TestMDCTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pcm := TestSignal(8 * FrameSamples)
	var x [2 * N]float64
	var got, want [N]float64
	for i := 0; i < 64; i++ {
		switch {
		case i < 7:
			copy(x[:], pcm[i*FrameSamples:])
		case i%2 == 0:
			for n := range x {
				x[n] = rng.NormFloat64()
			}
		default:
			for n := range x {
				x[n] = edgeValues[rng.Intn(len(edgeValues))]
			}
		}
		MDCT(&x, &got)
		refMDCT(&x, &want)
		for k := range want {
			if !sameBits(got[k], want[k]) {
				t.Fatalf("input %d: MDCT out[%d] = %v, reference %v", i, k, got[k], want[k])
			}
		}
	}
}

// FuzzIMDCT reads up to N little-endian float64 coefficients from the
// input (missing bytes are 0) and compares IMDCT with the reference bit for bit.
func FuzzIMDCT(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 8*N)
	for k := 0; k < N; k++ {
		binary.LittleEndian.PutUint64(seed[8*k:], math.Float64bits(math.Sin(float64(k))))
	}
	f.Add(seed)
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e308)))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Decoding a fixed-size copy keeps every loop's trip count
		// independent of len(b), so input length alone is never new
		// coverage for the fuzzer to spend its time minimizing.
		var raw [8 * N]byte
		copy(raw[:], b)
		var c [N]float64
		for k := range c {
			c[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		checkIMDCT(t, "fuzz", &c)
	})
}
