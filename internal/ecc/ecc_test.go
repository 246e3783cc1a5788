package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeClean(t *testing.T) {
	cases := []uint32{0, 1, 0xFFFFFFFF, 0xDEADBEEF, 0x80000000, 0x55555555, 0xAAAAAAAA, 42}
	for _, d := range cases {
		got, res := Decode(Encode(d))
		if res != OK {
			t.Errorf("Decode(Encode(%#x)) result = %v, want OK", d, res)
		}
		if got != d {
			t.Errorf("Decode(Encode(%#x)) = %#x, want %#x", d, got, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(d uint32) bool {
		got, res := Decode(Encode(d))
		return got == d && res == OK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every single-bit flip anywhere in the codeword must be corrected and the
// original data recovered. Exhaustive over all 39 positions for a sample of
// data words.
func TestSingleBitCorrection(t *testing.T) {
	words := []uint32{0, 0xFFFFFFFF, 0x12345678, 0xCAFEBABE, 1, 0x80000001}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		words = append(words, rng.Uint32())
	}
	for _, d := range words {
		cw := Encode(d)
		for bit := 0; bit < TotalBits; bit++ {
			got, res := Decode(FlipBit(cw, bit))
			if res != Corrected {
				t.Fatalf("data %#x bit %d: result = %v, want Corrected", d, bit, res)
			}
			if got != d {
				t.Fatalf("data %#x bit %d: decoded %#x, want %#x", d, bit, got, d)
			}
		}
	}
}

// Every double-bit flip must be flagged (never silently mis-corrected into
// an OK result). Exhaustive over all pairs for a sample of data words.
func TestDoubleBitDetection(t *testing.T) {
	words := []uint32{0, 0xFFFFFFFF, 0x12345678}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		words = append(words, rng.Uint32())
	}
	for _, d := range words {
		cw := Encode(d)
		for i := 0; i < TotalBits; i++ {
			for j := i + 1; j < TotalBits; j++ {
				_, res := Decode(FlipBit(FlipBit(cw, i), j))
				if res != Uncorrectable {
					t.Fatalf("data %#x bits (%d,%d): result = %v, want Uncorrectable", d, i, j, res)
				}
			}
		}
	}
}

// An out-of-range flip index is an injector bug; it must panic loudly
// instead of silently returning the codeword unchanged (the old no-op
// behavior made injectors believe errors landed that never did).
func TestFlipBitOutOfRange(t *testing.T) {
	cw := Encode(0xABCD)
	for _, i := range []int{-1, TotalBits, TotalBits + 24, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FlipBit(cw, %d) did not panic", i)
				}
			}()
			FlipBit(cw, i)
		}()
	}
}

func TestCheckResultString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Uncorrectable.String() != "uncorrectable" {
		t.Error("CheckResult String() mismatch")
	}
	if CheckResult(99).String() != "invalid" {
		t.Error("unknown CheckResult should stringify as invalid")
	}
}

// sink keeps the benchmarked codec calls from being optimized away.
var sink uint64

func BenchmarkEncode(b *testing.B) {
	var s Codeword
	for i := 0; i < b.N; i++ {
		s ^= Encode(uint32(i))
	}
	sink = uint64(s)
}

func BenchmarkDecodeClean(b *testing.B) {
	cw := Encode(0xDEADBEEF)
	var s uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := Decode(cw)
		s ^= v
	}
	sink = uint64(s)
}

// BenchmarkDecodeCorrected decodes a codeword with one flipped data bit:
// the path a corrupted shared working-set pointer takes through the
// queue's sharedCounter.load.
func BenchmarkDecodeCorrected(b *testing.B) {
	cw := FlipBit(Encode(0xDEADBEEF), 17)
	var s uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := Decode(cw)
		s ^= v
	}
	sink = uint64(s)
}
