// Package ecc implements a (39,32) Hamming single-error-correcting,
// double-error-detecting (SEC-DED) code over 32-bit words.
//
// CommGuard uses word-sized ECC in two places: frame headers inserted by the
// Header Inserter are end-to-end protected, and the Queue Manager protects
// the shared head/tail working-set pointers it exchanges with other cores
// (paper §4.1, §5.1). The code here is the classic extended Hamming code:
// six parity bits cover positions addressed by powers of two, plus one
// overall parity bit for double-error detection.
//
// The codec is table-driven, the software analogue of the single XOR
// tree the paper prices per check. Every check bit is an XOR over data
// bits, so Encode looks up the seven check bits contributed by each of
// the four data bytes and XORs the four entries. Decode recomputes them
// the same way and indexes a 128-entry table with the seven-bit mismatch
// against the stored ones: the mismatch's parity (the overall parity of
// the received word) separates single from double errors, and its six
// syndrome bits name the data bit to flip back. Decode is branch-free and
// inlinable; the codec allocates nothing, and its tables are built once
// at package init. Its speed on the host does not enter the results:
// Table 3's prices are modelled suboperation counts (CostModel), charged
// per protected access whatever Encode and Decode cost to run.
//
// The package-level Encode/Decode/FlipBit are that fixed Hamming code;
// the Coder interface (coder.go) makes the backend pluggable, with the
// Hamming singleton as the bit-identical default and a configurable
// bit-flipping LDPC family (ldpc.go) as the alternative.
package ecc

import (
	"fmt"
	"math/bits"
)

// Codeword is a word-sized ECC codeword stored in the low bits of a
// uint64: 39 bits for the default Hamming backend, up to 63 for LDPC
// backends (Coder.Width names the meaningful bit count).
type Codeword uint64

// Layout of a Codeword (least significant bits first):
//
//	bits  0..31  data word
//	bits 32..37  Hamming parity bits p1,p2,p4,p8,p16,p32
//	bit  38      overall parity (SEC-DED extension)
const (
	dataBits    = 32
	hammingBits = 6
	// TotalBits is the number of meaningful bits in a Codeword.
	TotalBits = dataBits + hammingBits + 1 // 39
)

// CheckResult classifies the outcome of decoding a Codeword.
type CheckResult int

const (
	// OK means the codeword carried no detectable error.
	OK CheckResult = iota
	// Corrected means a single-bit error was detected and corrected.
	Corrected
	// Uncorrectable means a double-bit (or worse) error was detected.
	Uncorrectable
)

func (r CheckResult) String() string {
	switch r {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	}
	return "invalid"
}

// dataPos[i] is the textbook Hamming position (1..38) of data bit i.
// Positions that are powers of two belong to the parity bits; data bits
// occupy the remaining positions in increasing order.
var dataPos = func() [dataBits]uint {
	var pos [dataBits]uint
	p := uint(1)
	i := 0
	for i < dataBits {
		// skip parity positions (powers of two)
		if p&(p-1) != 0 {
			pos[i] = p
			i++
		}
		p++
	}
	return pos
}()

// checkTable[b][v] holds the seven check bits (bits 0..5 Hamming parity
// p1..p32, bit 6 overall parity) contributed by data byte b holding v.
// Check bits are linear in the data, so a word's check bits are the XOR
// of its four bytes' entries.
var checkTable = func() [4][256]uint8 {
	var t [4][256]uint8
	for b := 0; b < 4; b++ {
		for v := 0; v < 256; v++ {
			var p uint8
			for i := 0; i < 8; i++ {
				if v&(1<<uint(i)) != 0 {
					p ^= uint8(dataPos[8*b+i]) & (1<<hammingBits - 1)
				}
			}
			overall := (bits.OnesCount8(uint8(v)) + bits.OnesCount8(p)) & 1
			t[b][v] = p | uint8(overall)<<hammingBits
		}
	}
	return t
}()

// checkBits returns the seven check bits of a data word.
func checkBits(data uint32) uint64 {
	return uint64(checkTable[0][uint8(data)] ^ checkTable[1][uint8(data>>8)] ^
		checkTable[2][uint8(data>>16)] ^ checkTable[3][data>>24])
}

// checkFix is how Decode answers one pattern of mismatched check bits:
// the data bit to flip back (none when no data bit flipped) and the
// classification.
type checkFix struct {
	flip uint32
	res  CheckResult
}

// checkMask selects the seven check bits of a codeword shifted down by
// dataBits.
const checkMask = 1<<(hammingBits+1) - 1

// correction maps the seven-bit mismatch between recomputed and stored
// check bits to its fix; no mismatch is the zero fix (OK). A valid
// codeword has even overall parity, so the mismatch's parity is that of
// all 39 received bits: even means an even number of flips
// (Uncorrectable); odd means one flip, whose six-bit syndrome names its
// Hamming position. A syndrome of 0 (the overall bit) or a power of two
// (a parity bit) leaves the data intact; syndromes past the last data
// position (39..63) name no bit.
var correction = func() [checkMask + 1]checkFix {
	var t [checkMask + 1]checkFix
	for m := 1; m < len(t); m++ {
		syndrome := uint(m) & (1<<hammingBits - 1)
		if bits.OnesCount8(uint8(m))&1 == 0 || syndrome > dataPos[dataBits-1] {
			t[m].res = Uncorrectable
			continue
		}
		t[m].res = Corrected
		for i, pos := range dataPos {
			if pos == syndrome {
				t[m].flip = 1 << uint(i)
			}
		}
	}
	return t
}()

// Encode computes the SEC-DED codeword for a 32-bit data word.
func Encode(data uint32) Codeword {
	return Codeword(data) | Codeword(checkBits(data))<<dataBits
}

// Decode checks cw, correcting a single-bit error if present. It returns
// the (possibly corrected) data word and the classification of what it saw.
// Bits of cw above TotalBits are ignored.
func Decode(cw Codeword) (uint32, CheckResult) {
	fix := correction[(checkBits(uint32(cw))^uint64(cw>>dataBits))&checkMask]
	return uint32(cw) ^ fix.flip, fix.res
}

// FlipBit returns cw with bit i (0 <= i < TotalBits) inverted. It is used
// by fault injectors to model storage/transmission errors on protected
// words. An out-of-range index panics: a silent no-op here would make an
// injector believe it applied an error that never landed, skewing every
// downstream error-rate measurement.
func FlipBit(cw Codeword, i int) Codeword {
	if i < 0 || i >= TotalBits {
		panic(fmt.Sprintf("ecc: FlipBit index %d out of range [0,%d)", i, TotalBits))
	}
	return cw ^ (1 << uint(i))
}
