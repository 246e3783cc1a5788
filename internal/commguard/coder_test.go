package commguard

import (
	"testing"
	"time"

	"commguard/internal/ecc"
	"commguard/internal/queue"
)

// A header whose is-header tag bit flipped in transit arrives as a data
// item. The AM in ExpHdr must classify the missing header as a frame
// error (DiscFr) rather than deliver the codeword bits as data.
func TestTagFlipDemotedHeaderClassified(t *testing.T) {
	q := amQueue(t)
	am := NewAlignmentManager(q, 0xAB)
	c := q.Coder()
	demoted := queue.EncodeHeader(c, 0).WithUnitBitFlipped(c, c.Width())
	if demoted.IsHeader() {
		t.Fatal("tag flip did not demote the header")
	}
	load(q, demoted, queue.DataUnit(10), queue.DataUnit(11))
	am.NewFrameComputation(0)
	if got := am.Pop(); got != 0xAB {
		t.Fatalf("pop delivered %#x, want the pad value", got)
	}
	if am.State() != DiscFr {
		t.Fatalf("state = %v, want DiscFr (item while expecting header)", am.State())
	}
	st := am.Stats()
	if st.ItemsDelivered != 0 || st.DiscardedItems != 3 {
		t.Fatalf("stats = %+v, want 0 delivered / 3 discarded", st)
	}
}

// A data item whose tag bit flipped arrives as a header. Depending on
// what its payload decodes to under the header ECC, the AM must either
// treat it as a stale/duplicate header (realign) or, when the codeword
// is uncorrectable, drop it like an item. Both classifications are
// exercised deterministically.
func TestTagFlipPromotedDataClassified(t *testing.T) {
	c := ecc.Hamming

	// Payload 0 is the Hamming codeword of header ID 0, so the promoted
	// unit is exactly HeaderUnit(0): a duplicate-current header mid-frame
	// means stale data follows -> Disc.
	t.Run("decodes-as-stale-header", func(t *testing.T) {
		q := amQueue(t)
		am := NewAlignmentManager(q, 0xAB)
		promoted := queue.DataUnit(0).WithUnitBitFlipped(c, c.Width())
		if !promoted.IsHeader() {
			t.Fatal("tag flip did not promote the data unit")
		}
		load(q, queue.HeaderUnit(0), queue.DataUnit(5), promoted)
		am.NewFrameComputation(0)
		if got := am.Pop(); got != 5 {
			t.Fatalf("first item = %d, want 5", got)
		}
		if got := am.Pop(); got != 0xAB {
			t.Fatalf("pop after spurious header = %#x, want the pad value", got)
		}
		if am.State() != Disc {
			t.Fatalf("state = %v, want Disc (stale header mid-frame)", am.State())
		}
	})

	// A payload whose raw word is no valid codeword (uncorrectable under
	// the header ECC) is dropped like a garbage unit; alignment is
	// undisturbed.
	t.Run("decodes-uncorrectable", func(t *testing.T) {
		payload := uint32(0)
		for v := uint32(1); v < 4096; v++ {
			if _, res := ecc.Decode(ecc.Codeword(v)); res == ecc.Uncorrectable {
				payload = v
				break
			}
		}
		if payload == 0 {
			t.Fatal("no uncorrectable raw payload found in scan range")
		}
		q := amQueue(t)
		am := NewAlignmentManager(q, 0xAB)
		promoted := queue.DataUnit(payload).WithUnitBitFlipped(c, c.Width())
		load(q, queue.HeaderUnit(0), queue.DataUnit(5), promoted, queue.DataUnit(6))
		am.NewFrameComputation(0)
		for _, want := range []uint32{5, 6} {
			if got := am.Pop(); got != want {
				t.Fatalf("item = %d, want %d", got, want)
			}
		}
		st := am.Stats()
		if st.UncorrectableHeaders != 1 || st.DiscardedItems != 1 {
			t.Fatalf("stats = %+v, want 1 uncorrectable header dropped", st)
		}
		if am.State() != RcvCmp {
			t.Fatalf("state = %v, want RcvCmp (alignment undisturbed)", am.State())
		}
	})
}

// HI and AM charge header ECC at the backend's CostModel price: one op
// under Hamming, scaled under LDPC.
func TestHeaderOpsPricedByCoder(t *testing.T) {
	for _, tc := range []struct {
		coder string
		want  uint64
	}{{"", 1}, {"ldpc-48-3-9", 3}, {"ldpc-40-3-15", 2}} {
		q := queue.MustNew(0, queue.Config{
			WorkingSets: 4, WorkingSetUnits: 64,
			ProtectPointers: true, Timeout: 20 * time.Millisecond,
			Coder: tc.coder,
		})
		hi := NewHeaderInserter(q)
		am := NewAlignmentManager(q, 0)
		hi.NewFrameComputation(0)
		q.PushDataN([]uint32{42})
		q.Flush()
		am.NewFrameComputation(0)
		if got := am.Pop(); got != 42 {
			t.Fatalf("coder %q: delivered %d, want 42", tc.coder, got)
		}
		if got := hi.Ops().ECC; got != tc.want {
			t.Errorf("coder %q: HI ECC ops = %d, want %d", tc.coder, got, tc.want)
		}
		if got := am.Ops().ECC; got != tc.want {
			t.Errorf("coder %q: AM ECC ops = %d, want %d", tc.coder, got, tc.want)
		}
	}
}

// Full framed transit under the LDPC backend: headers encode, align and
// deliver exactly as under Hamming.
func TestFramedTransitLDPC(t *testing.T) {
	q := queue.MustNew(0, queue.Config{
		WorkingSets: 4, WorkingSetUnits: 64,
		ProtectPointers: true, Timeout: 20 * time.Millisecond,
		Coder: "ldpc",
	})
	hi := NewHeaderInserter(q)
	am := NewAlignmentManager(q, 0)
	for frame := uint32(0); frame < 3; frame++ {
		hi.NewFrameComputation(frame)
		q.PushDataN([]uint32{frame*10 + 1, frame*10 + 2})
	}
	q.Flush()
	for frame := uint32(0); frame < 3; frame++ {
		am.NewFrameComputation(frame)
		for i := uint32(1); i <= 2; i++ {
			if got, want := am.Pop(), frame*10+i; got != want {
				t.Fatalf("frame %d: got %d, want %d", frame, got, want)
			}
		}
	}
	st := am.Stats()
	if st.ItemsDelivered != 6 || st.DataLossItems() != 0 {
		t.Fatalf("stats = %+v, want 6 delivered / 0 lost", st)
	}
}
