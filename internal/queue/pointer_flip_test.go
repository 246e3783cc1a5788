package queue

import (
	"fmt"
	"testing"
	"time"

	"commguard/internal/ecc"
)

// flipRun drives one queue through a fixed transit script: item i is
// pushed, then item i-lag is popped, so every push and pop finds room and
// data. With two-unit working sets each push or pop performs at most one
// pointer access: a refresh at a working set's first unit, a publish or
// return at its last. After every operation that accessed a pointer,
// batch (when flipping) runs on the stored pointer words.
type flipRun struct {
	t     *testing.T
	q     *Queue
	words [2]*flipWord

	flips    uint64 // bits flipped so far
	explicit uint64 // PointerECCOps charged by the batches' own refreshes
	batches  int
	events   map[string]int // pointer accesses by kind
}

// flipWord is one stored pointer word and its peer's refresh.
type flipWord struct {
	name    string
	w       *word
	refresh func() uint32
	price   uint64 // the refresh's Table 3 price
	pending bool   // a flip is left for the transit to find
}

const (
	flipItems = 600
	flipLag   = 3
)

func newFlipRun(t *testing.T, coder string, plain bool) *flipRun {
	q := MustNew(1, Config{
		WorkingSets: 3, WorkingSetUnits: 2, ProtectPointers: true,
		Timeout: 50 * time.Millisecond, Coder: coder,
	})
	if plain {
		q.SetSequential()
	}
	cost := q.Coder().Cost()
	return &flipRun{
		t: t,
		q: q,
		words: [2]*flipWord{
			{name: "filled", w: &q.filled, refresh: q.refreshFilled, price: cost.RefreshDrainOps},
			{name: "drained", w: &q.drained, refresh: q.refreshDrained, price: cost.RefreshFillOps},
		},
		events: map[string]int{},
	}
}

// run executes the script, calling batch after each pointer access when
// flip is set, and checks that transit delivered every item in order.
func (r *flipRun) run(flip bool) {
	t, q := r.t, r.q
	want := uint32(0)
	pop := func() {
		t.Helper()
		prevWS := q.consWS
		before := q.Stats().PointerECCOps
		u, ok := q.Pop()
		if !ok || u.IsHeader() || u.Payload() != want {
			t.Fatalf("pop %d: got (%#x, %v), want data %d", want, uint64(u), ok, want)
		}
		want++
		r.after("pop", before, prevWS != q.consWS, flip)
	}
	for i := 0; i < flipItems; i++ {
		prevWS := q.prodWS
		before := q.Stats().PointerECCOps
		q.Push(DataUnit(uint32(i)))
		r.after("push", before, prevWS != q.prodWS, flip)
		if i >= flipLag {
			pop()
		}
	}
	for want < flipItems {
		pop()
	}
	if flip {
		r.resolve()
	}
	// Transit resumed at the right working set after every flip: each
	// side stands where its exchange count puts it.
	k := uint32(q.cfg.WorkingSets)
	if n := uint32(flipItems / q.cfg.WorkingSetUnits); q.prodWS != n || q.consWS != n {
		t.Fatalf("working sets: producer %d, consumer %d, want %d", q.prodWS, q.consWS, n)
	}
	if q.prodWSIdx != q.prodWS%k || q.consWSIdx != q.consWS%k {
		t.Fatalf("working-set indexes %d/%d, want %d/%d", q.prodWSIdx, q.consWSIdx, q.prodWS%k, q.consWS%k)
	}
}

// after classifies one operation's pointer access and, if there was one,
// runs a flip batch.
func (r *flipRun) after(op string, before uint64, advanced, flip bool) {
	if r.q.Stats().PointerECCOps == before {
		return
	}
	switch {
	case op == "push" && advanced:
		r.events["publish"]++
	case op == "push":
		r.events["fill-side refresh"]++
	case advanced:
		r.events["return"]++
	default:
		r.events["drain-side refresh"]++
	}
	if flip {
		r.batch()
	}
}

// batch flips every bit of both stored pointer words in turn. Each flip
// but one is read back at once by the word's peer refresh, which must
// correct it, count it once, charge the refresh plus one scrub and
// restore the stored word. The remaining flip (a different bit each
// batch) is left for the transit to find: the owner's next advance or the
// peer's next refresh, whichever comes first.
func (r *flipRun) batch() {
	t, q := r.t, r.q
	width := q.coder.Width()
	cost := q.coder.Cost()
	r.resolve()
	for _, fw := range r.words {
		left := r.batches % width
		for b := 0; b < width; b++ {
			if b == left {
				continue
			}
			clean := fw.w.load(q.plain)
			before := q.Stats()
			fw.w.flip(q.plain, uint64(q.coder.FlipBit(0, b)))
			r.flips++
			fw.refresh()
			after := q.Stats()
			if got := after.CorrectedPointerErrors - before.CorrectedPointerErrors; got != 1 {
				t.Fatalf("batch %d, %s bit %d: %d corrections counted, want 1", r.batches, fw.name, b, got)
			}
			if got, want := after.PointerECCOps-before.PointerECCOps, fw.price+cost.ScrubOps; got != want {
				t.Fatalf("batch %d, %s bit %d: %d ops charged, want %d (refresh + scrub)", r.batches, fw.name, b, got, want)
			}
			if got := fw.w.load(q.plain); got != clean {
				t.Fatalf("batch %d, %s bit %d: word %#x after the scrub, want %#x", r.batches, fw.name, b, got, clean)
			}
			r.explicit += fw.price
		}
		fw.w.flip(q.plain, uint64(q.coder.FlipBit(0, left)))
		r.flips++
		fw.pending = true
	}
	r.batches++
}

// resolve reads back a flip the transit has not found yet with one peer
// refresh, then checks that every flip so far was counted exactly once.
func (r *flipRun) resolve() {
	q := r.q
	for _, fw := range r.words {
		if !fw.pending {
			continue
		}
		fw.pending = false
		if _, res := q.coder.Decode(ecc.Codeword(fw.w.load(q.plain))); res == ecc.Corrected {
			fw.refresh()
			r.explicit += fw.price
		}
	}
	if got := q.Stats().CorrectedPointerErrors; got != r.flips {
		r.t.Fatalf("after batch %d: %d corrections counted for %d flips", r.batches, got, r.flips)
	}
}

// TestPointerFlipsCountedOnce flips every bit of the stored filled and
// drained words after each publish, return and refresh of a transit, in
// one-goroutine mode and in the two-goroutine mode's atomic accessors,
// under Hamming and the default LDPC backend. Every flip must be
// corrected and counted exactly once (CorrectedPointerErrors, and
// PointerECCOps including the scrub), and the transit must deliver every
// item in order and end at the right working set. The pointer-word memo
// (filledWord, drainedWord) must never let a flipped word pass as known.
func TestPointerFlipsCountedOnce(t *testing.T) {
	for _, coder := range []string{"hamming", "ldpc"} {
		for _, plain := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/plain=%v", coder, plain), func(t *testing.T) {
				clean := newFlipRun(t, coder, plain)
				clean.run(false)
				r := newFlipRun(t, coder, plain)
				r.run(true)
				for _, kind := range []string{"publish", "return", "fill-side refresh", "drain-side refresh"} {
					if r.events[kind] == 0 || r.events[kind] != clean.events[kind] {
						t.Fatalf("%s: %d with flips, %d without (want the same, > 0)", kind, r.events[kind], clean.events[kind])
					}
				}
				got, base := r.q.Stats(), clean.q.Stats()
				if got.CorrectedPointerErrors != r.flips {
					t.Fatalf("CorrectedPointerErrors = %d, want %d", got.CorrectedPointerErrors, r.flips)
				}
				want := base.PointerECCOps + r.explicit + r.flips*r.q.cost.ScrubOps
				if got.PointerECCOps != want {
					t.Fatalf("PointerECCOps = %d, want %d (transit %d + batch refreshes %d + %d scrubs)",
						got.PointerECCOps, want, base.PointerECCOps, r.explicit, r.flips)
				}
				if got.ItemStores != base.ItemStores || got.ItemLoads != base.ItemLoads ||
					got.PushTimeouts+got.PopTimeouts != 0 {
					t.Fatalf("transit stats %+v, want %+v", got, base)
				}
			})
		}
	}
}
