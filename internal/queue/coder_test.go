package queue

import (
	"math/rand"
	"testing"
	"time"

	"commguard/internal/ecc"
)

// coderTestConfig is a tiny two-working-set geometry so a working-set
// exchange happens every 4 units.
func coderTestConfig(coder string) Config {
	return Config{
		WorkingSets:     2,
		WorkingSetUnits: 4,
		ProtectPointers: true,
		Timeout:         50 * time.Millisecond,
		Coder:           coder,
	}
}

// TestScrubOpsAccounting pins the exact Table 3 suboperation counts of
// the shared-pointer paths, including the scrub path: correcting a
// corrupted pointer word costs the refresh price plus one scrub
// re-encode (CostModel.ScrubOps). The scrub encode used to run
// unaccounted — this is the regression test for that undercount.
func TestScrubOpsAccounting(t *testing.T) {
	q := MustNew(1, coderTestConfig(""))
	q.SetSequential()
	push4 := func() {
		for i := 0; i < 4; i++ {
			q.Push(DataUnit(uint32(i)))
		}
	}
	pop4 := func() {
		t.Helper()
		for i := 0; i < 4; i++ {
			if _, ok := q.Pop(); !ok {
				t.Fatal("pop failed with data available")
			}
		}
	}

	// One published working set: one exchange at Hamming's price.
	push4()
	if got := q.Stats().PointerECCOps; got != 10 {
		t.Fatalf("after publish: PointerECCOps = %d, want 10", got)
	}
	// Draining it refreshes the consumer's cached view once (+1) and
	// returns the working set (+10).
	pop4()
	if got := q.Stats().PointerECCOps; got != 21 {
		t.Fatalf("after drain: PointerECCOps = %d, want 21", got)
	}

	// Corrupt the shared filled pointer. The next refresh decodes it as
	// Corrected and writes the scrubbed word back: refresh (+1) plus
	// scrub (+1).
	q.filled.flip(q.plain, uint64(ecc.FlipBit(0, 7)))
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on an empty queue")
	}
	s := q.Stats()
	if s.CorrectedPointerErrors != 1 {
		t.Fatalf("CorrectedPointerErrors = %d, want 1", s.CorrectedPointerErrors)
	}
	if s.PointerECCOps != 23 {
		t.Fatalf("scrub path: PointerECCOps = %d, want 23 (21 + 1 refresh + 1 scrub)", s.PointerECCOps)
	}

	// Same on the exchange path: a corrupted drained pointer is scrubbed
	// during returnWS (exchange price + scrub).
	q.drained.flip(q.plain, uint64(ecc.FlipBit(0, 3)))
	push4() // publish: +10 (filled pointer is clean again)
	pop4()  // refresh +1, returnWS +10 +1 scrub, corrected +1
	s = q.Stats()
	if s.CorrectedPointerErrors != 2 {
		t.Fatalf("CorrectedPointerErrors = %d, want 2", s.CorrectedPointerErrors)
	}
	if want := uint64(23 + 10 + 1 + 10 + 1); s.PointerECCOps != want {
		t.Fatalf("exchange scrub: PointerECCOps = %d, want %d", s.PointerECCOps, want)
	}
	assertPeekAtPrice(t, q)
}

// assertPeekAtPrice pins PeekAt's refresh of the filled pointer at
// canDrain's price: the backend's refresh, plus one scrub when the word
// needed correcting. PeekAt used to charge a flat 1 and no scrub, which
// undercounts every backend whose refresh costs more than Hamming's.
func assertPeekAtPrice(t *testing.T, q *Queue) {
	t.Helper()
	cost := q.Coder().Cost()
	before := q.Stats()
	q.PeekAt(0)
	after := q.Stats()
	if got := after.PointerECCOps - before.PointerECCOps; got != cost.RefreshDrainOps {
		t.Fatalf("clean PeekAt: %d ops, want the refresh price %d", got, cost.RefreshDrainOps)
	}
	q.filled.flip(q.plain, uint64(q.coder.FlipBit(0, 5)))
	before = after
	q.PeekAt(0)
	after = q.Stats()
	if after.CorrectedPointerErrors != before.CorrectedPointerErrors+1 {
		t.Fatalf("PeekAt on a flipped filled word: CorrectedPointerErrors %d -> %d, want +1",
			before.CorrectedPointerErrors, after.CorrectedPointerErrors)
	}
	if got, want := after.PointerECCOps-before.PointerECCOps, cost.RefreshDrainOps+cost.ScrubOps; got != want {
		t.Fatalf("scrubbing PeekAt: %d ops, want %d (refresh + scrub)", got, want)
	}
}

// The same walk under the LDPC backend: every price scales by the
// backend's cost model (m=16 checks -> 3x Hamming), pinned exactly.
func TestScrubOpsAccountingLDPC(t *testing.T) {
	q := MustNew(1, coderTestConfig("ldpc"))
	q.SetSequential()
	cost := q.Coder().Cost()
	if cost.WorksetExchangeOps != 30 || cost.RefreshDrainOps != 3 || cost.ScrubOps != 3 {
		t.Fatalf("unexpected ldpc cost model: %+v", cost)
	}
	for i := 0; i < 4; i++ {
		q.Push(DataUnit(uint32(i)))
	}
	for i := 0; i < 4; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed with data available")
		}
	}
	if got, want := q.Stats().PointerECCOps, uint64(30+3+30); got != want {
		t.Fatalf("ldpc transit: PointerECCOps = %d, want %d", got, want)
	}
	q.filled.flip(q.plain, uint64(q.Coder().FlipBit(0, 40))) // bit beyond Hamming's 39 bits
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on an empty queue")
	}
	s := q.Stats()
	if s.CorrectedPointerErrors != 1 {
		t.Fatalf("CorrectedPointerErrors = %d, want 1", s.CorrectedPointerErrors)
	}
	if got, want := s.PointerECCOps, uint64(63+3+3); got != want {
		t.Fatalf("ldpc scrub: PointerECCOps = %d, want %d (refresh + scrub at 3x)", got, want)
	}
	assertPeekAtPrice(t, q)
}

// Pointer corruption draws flip positions from the backend's width;
// with a 48-bit LDPC codeword the protected counter still repairs every
// single flip on load.
func TestCorruptPointerLDPCWidth(t *testing.T) {
	q := MustNew(2, coderTestConfig("ldpc"))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		q.CorruptPointer(rng)
		f, d := q.refreshFilled(), q.refreshDrained()
		if f != 0 || d != 0 {
			t.Fatalf("iteration %d: protected pointers decoded (%d,%d), want (0,0)", i, f, d)
		}
	}
	if q.Stats().CorrectedPointerErrors == 0 {
		t.Fatal("no corruption was ever injected")
	}
}

func TestEncodeDecodeHeaderCoder(t *testing.T) {
	for _, spec := range []string{"hamming", "ldpc"} {
		c := ecc.MustCoder(spec)
		for _, id := range []uint32{0, 1, 42, 0x7FFFFFFF, EOCHeaderID} {
			u := EncodeHeader(c, id)
			if !u.IsHeader() {
				t.Fatalf("%s: EncodeHeader(%#x) lost the tag bit", spec, id)
			}
			got, res := u.DecodeHeader(c)
			if got != id || res != ecc.OK {
				t.Fatalf("%s: DecodeHeader = (%#x,%v), want (%#x,OK)", spec, got, res, id)
			}
			// A single codeword flip is corrected by every backend.
			bad := Unit(uint64(u) ^ 1<<uint(c.Width()-1))
			got, res = bad.DecodeHeader(c)
			if got != id || res != ecc.Corrected {
				t.Fatalf("%s: flipped DecodeHeader = (%#x,%v), want (%#x,Corrected)", spec, got, res, id)
			}
		}
	}
	// The Hamming pair must agree with the legacy fixed-backend API.
	u := HeaderUnit(7)
	if u2 := EncodeHeader(ecc.Hamming, 7); u2 != u {
		t.Fatalf("EncodeHeader(Hamming) = %#x, HeaderUnit = %#x", u2, u)
	}
	id1, r1 := u.HeaderID()
	id2, r2 := u.DecodeHeader(ecc.Hamming)
	if id1 != id2 || r1 != r2 {
		t.Fatal("DecodeHeader(Hamming) disagrees with HeaderID")
	}
}

// WithUnitBitFlipped covers the whole storage word: codeword bits and,
// at index Width, the is-header tag bit — the header<->data confusion
// that payload-only injection can never produce.
func TestWithUnitBitFlippedTagBit(t *testing.T) {
	c := ecc.Hamming
	h := EncodeHeader(c, 9)
	demoted := h.WithUnitBitFlipped(c, c.Width())
	if demoted.IsHeader() {
		t.Fatal("tag flip did not demote the header to a data unit")
	}
	if promoted := demoted.WithUnitBitFlipped(c, c.Width()); promoted != h {
		t.Fatal("tag flip is not an involution")
	}
	d := DataUnit(0x1234)
	if !d.WithUnitBitFlipped(c, c.Width()).IsHeader() {
		t.Fatal("tag flip did not promote the data unit to a header")
	}
	if got := d.WithUnitBitFlipped(c, 5); got != DataUnit(0x1234^32) {
		t.Fatalf("payload flip = %#x, want %#x", got, DataUnit(0x1234^32))
	}
	for _, i := range []int{-1, c.Width() + 1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithUnitBitFlipped(%d) did not panic", i)
				}
			}()
			d.WithUnitBitFlipped(c, i)
		}()
	}
}

// CorruptUnit flips exactly one storage bit of exactly one buffer slot
// per call, and can hit the tag bit.
func TestCorruptUnit(t *testing.T) {
	q := MustNew(3, coderTestConfig(""))
	q.SetSequential()
	for i := 0; i < 4; i++ {
		q.Push(DataUnit(uint32(i)))
	}
	snapshot := func() []uint64 {
		out := make([]uint64, len(q.buf))
		for i := range q.buf {
			out[i] = q.buf[i].load(q.plain)
		}
		return out
	}
	rng := rand.New(rand.NewSource(12))
	tagFlips := 0
	for iter := 0; iter < 500; iter++ {
		before := snapshot()
		q.CorruptUnit(rng)
		after := snapshot()
		diffSlots, diffBits := 0, 0
		tag := false
		for i := range before {
			if x := before[i] ^ after[i]; x != 0 {
				diffSlots++
				for ; x != 0; x &= x - 1 {
					diffBits++
				}
				if before[i]^after[i] == uint64(headerTag) {
					tag = true
				}
			}
		}
		if diffSlots != 1 || diffBits != 1 {
			t.Fatalf("iteration %d: corrupted %d slots / %d bits, want 1/1", iter, diffSlots, diffBits)
		}
		if tag {
			tagFlips++
		}
	}
	if tagFlips == 0 {
		t.Fatal("500 unit corruptions never hit the is-header tag bit")
	}
}

// End-to-end transit with the LDPC backend: headers and data round-trip
// through the queue unchanged.
func TestQueueTransitLDPC(t *testing.T) {
	q := MustNew(4, coderTestConfig("ldpc"))
	c := q.Coder()
	q.Push(EncodeHeader(c, 1))
	for i := 0; i < 2; i++ {
		q.Push(DataUnit(100 + uint32(i)))
	}
	q.Flush()
	u, ok := q.Pop()
	if !ok || !u.IsHeader() {
		t.Fatalf("first unit = (%#x,%v), want a header", u, ok)
	}
	if id, res := u.DecodeHeader(c); id != 1 || res != ecc.OK {
		t.Fatalf("header decoded (%d,%v), want (1,OK)", id, res)
	}
	for i := 0; i < 2; i++ {
		u, ok := q.Pop()
		if !ok || u.IsHeader() || u.Payload() != 100+uint32(i) {
			t.Fatalf("item %d = (%#x,%v)", i, u, ok)
		}
	}
}

func TestConfigValidateCoder(t *testing.T) {
	cfg := coderTestConfig("no-such-coder")
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown coder spec")
	}
	if _, err := New(1, cfg); err == nil {
		t.Fatal("New accepted an unknown coder spec")
	}
}
