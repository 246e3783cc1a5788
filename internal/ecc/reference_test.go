package ecc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The reference codec is the textbook shift-xor formulation of the same
// (39,32) SEC-DED code: each parity bit folds the masked data word down
// to one bit, and correction scans the data positions for the syndrome.
// It shares only dataPos with the table codec, so the tests below pin
// Encode/Decode to an independent computation, not to themselves.

// refParityMask[j] is a mask over the 32 data bits covered by parity bit 2^j.
var refParityMask = func() [hammingBits]uint32 {
	var masks [hammingBits]uint32
	for i := 0; i < dataBits; i++ {
		for j := 0; j < hammingBits; j++ {
			if dataPos[i]&(1<<uint(j)) != 0 {
				masks[j] |= 1 << uint(i)
			}
		}
	}
	return masks
}()

func refParity32(x uint32) uint64 {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return uint64(x & 1)
}

func refEncode(data uint32) Codeword {
	cw := Codeword(data)
	var syndromeBits uint64
	for j := 0; j < hammingBits; j++ {
		syndromeBits |= refParity32(data&refParityMask[j]) << uint(j)
	}
	cw |= Codeword(syndromeBits) << dataBits
	// Overall parity covers data and Hamming parity bits.
	overall := refParity32(data) ^ refParity32(uint32(syndromeBits))
	cw |= Codeword(overall) << (dataBits + hammingBits)
	return cw
}

func refDecode(cw Codeword) (uint32, CheckResult) {
	data := uint32(cw)
	storedParity := uint32(cw>>dataBits) & ((1 << hammingBits) - 1)
	storedOverall := uint64(cw>>(dataBits+hammingBits)) & 1

	var syndrome uint
	for j := 0; j < hammingBits; j++ {
		p := refParity32(data & refParityMask[j])
		if p != uint64(storedParity>>uint(j))&1 {
			syndrome |= 1 << uint(j)
		}
	}
	overall := refParity32(data) ^ refParity32(storedParity) ^ storedOverall

	switch {
	case syndrome == 0 && overall == 0:
		return data, OK
	case overall == 1:
		if syndrome == 0 || syndrome&(syndrome-1) == 0 {
			// The overall bit or a parity bit flipped; data is intact.
			return data, Corrected
		}
		for i := 0; i < dataBits; i++ {
			if dataPos[i] == syndrome {
				return data ^ (1 << uint(i)), Corrected
			}
		}
		// Syndrome points outside the codeword.
		return data, Uncorrectable
	default:
		return data, Uncorrectable
	}
}

// checkAgainstRef fails t unless Decode and refDecode agree on cw.
func checkAgainstRef(t testing.TB, cw Codeword) {
	gv, gr := Decode(cw)
	wv, wr := refDecode(cw)
	if gv != wv || gr != wr {
		t.Fatalf("Decode(%#x) = (%#x, %v), reference (%#x, %v)", uint64(cw), gv, gr, wv, wr)
	}
}

// oracleWords is every 16-bit word followed by 1<<20 seeded random words.
func oracleWords() []uint32 {
	words := make([]uint32, 0, 1<<16+1<<20)
	for d := uint32(0); d < 1<<16; d++ {
		words = append(words, d)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1<<20; i++ {
		words = append(words, rng.Uint32())
	}
	return words
}

// Encode, and Decode of the clean codeword and of every single- and
// double-bit flip of it, must match the reference on every oracle word.
// The words are split into one parallel subtest per CPU.
func TestHammingMatchesReferenceOnFlips(t *testing.T) {
	words := oracleWords()
	if testing.Short() {
		words = words[:1<<16+1<<12]
	}
	chunks := runtime.GOMAXPROCS(0)
	for c := 0; c < chunks; c++ {
		part := words[c*len(words)/chunks : (c+1)*len(words)/chunks]
		t.Run(fmt.Sprintf("part%d", c), func(t *testing.T) {
			t.Parallel()
			for _, d := range part {
				cw := Encode(d)
				if want := refEncode(d); cw != want {
					t.Fatalf("Encode(%#x) = %#x, reference %#x", d, uint64(cw), uint64(want))
				}
				checkAgainstRef(t, cw)
				for i := 0; i < TotalBits; i++ {
					ci := cw ^ 1<<uint(i)
					checkAgainstRef(t, ci)
					for j := i + 1; j < TotalBits; j++ {
						checkAgainstRef(t, ci^1<<uint(j))
					}
				}
			}
		})
	}
}

// Decode must match the reference on arbitrary 39-bit patterns (most
// carry three or more flips), with and without junk above the codeword,
// which both ignore.
func TestHammingMatchesReferenceOnRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<20; i++ {
		cw := Codeword(rng.Uint64() & (1<<TotalBits - 1))
		checkAgainstRef(t, cw)
		checkAgainstRef(t, cw|Codeword(rng.Uint64())&^(1<<TotalBits-1))
	}
}

func FuzzHammingMatchesReference(f *testing.F) {
	f.Add(uint32(0), uint64(0))
	f.Add(uint32(0xDEADBEEF), uint64(1)<<5)
	f.Add(uint32(0x12345678), uint64(1)<<33|1<<7)
	f.Add(uint32(0xFFFFFFFF), uint64(1)<<38)
	f.Add(uint32(42), uint64(0x7FFFFFFFFF))
	f.Fuzz(func(t *testing.T, data uint32, flips uint64) {
		if got, want := Encode(data), refEncode(data); got != want {
			t.Fatalf("Encode(%#x) = %#x, reference %#x", data, uint64(got), uint64(want))
		}
		checkAgainstRef(t, Encode(data)^Codeword(flips))
	})
}
