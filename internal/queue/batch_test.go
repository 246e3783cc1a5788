package queue

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// mixedUnits builds a unit sequence with headers sprinkled at the given
// stride (stride 0 means no headers).
func mixedUnits(n, headerStride int) []Unit {
	us := make([]Unit, n)
	for i := range us {
		if headerStride > 0 && i%headerStride == headerStride-1 {
			us[i] = HeaderUnit(uint32(i))
		} else {
			us[i] = DataUnit(uint32(i))
		}
	}
	return us
}

// modeTwins builds two queues of one configuration, one per word mode:
// an atomic-mode queue, as the concurrent engine drives it, and a
// one-goroutine queue (SetSequential, plain words). The tests drive both
// from one goroutine with the same operations. The atomic twin's Cancel is
// closed, so where the sequential twin gives up at once on an empty or
// full working set, the atomic twin gives up at the same point instead of
// waiting. A cancelled queue books no timeout; that is the only intended
// difference between the twins (see assertSameModes).
func modeTwins(cfg Config) (atomicQ, plainQ *Queue) {
	cancel := make(chan struct{})
	close(cancel)
	acfg := cfg
	acfg.Cancel = cancel
	plainQ = MustNew(1, cfg)
	plainQ.SetSequential()
	return MustNew(1, acfg), plainQ
}

// assertSameModes fails unless the twins delivered the same units and
// booked the same Stats. The sequential twin books one pop timeout per
// failed pop (failedPops) and a push timeout with each forced overwrite;
// the atomic twin, cancelled, books neither.
func assertSameModes(t *testing.T, what string, atomicQ, plainQ *Queue, outA, outP []Unit, failedPops uint64) {
	t.Helper()
	if len(outA) != len(outP) {
		t.Fatalf("%s: atomic mode delivered %d units, sequential mode %d", what, len(outA), len(outP))
	}
	for i := range outA {
		if outA[i] != outP[i] {
			t.Fatalf("%s: unit %d differs: atomic %x sequential %x", what, i, outA[i], outP[i])
		}
	}
	as, ps := atomicQ.Stats(), plainQ.Stats()
	if as.PushTimeouts != 0 || as.ForcedOverwrites != 0 || as.PopTimeouts != 0 {
		t.Fatalf("%s: the cancelled atomic twin booked timeouts: %+v", what, as)
	}
	if ps.PopTimeouts != failedPops || ps.ForcedOverwrites != ps.PushTimeouts {
		t.Fatalf("%s: sequential timeouts %+v, want %d pop timeouts and one push timeout per forced overwrite",
			what, ps, failedPops)
	}
	as.PushTimeouts, as.ForcedOverwrites, as.PopTimeouts = ps.PushTimeouts, ps.ForcedOverwrites, ps.PopTimeouts
	if as != ps {
		t.Fatalf("%s: stats diverged\natomic     %+v\nsequential %+v", what, as, ps)
	}
}

// transitFunc pushes a chunk, flushes, and pops as many units, returning
// what was delivered and how many pops failed.
type transitFunc func(q *Queue, us []Unit) (out []Unit, failedPops uint64)

func transitPerItem(q *Queue, us []Unit) (out []Unit, failedPops uint64) {
	for _, u := range us {
		q.Push(u)
	}
	q.Flush()
	for range us {
		u, ok := q.Pop()
		if !ok {
			failedPops++
			continue
		}
		out = append(out, u)
	}
	return out, failedPops
}

// transitBatch moves the chunk the way the engine's ports do: runs of data
// through PushDataN and PopDataN, each header through Push and Pop. Like
// a failed PopDataN, a failed pop ends the chunk.
func transitBatch(q *Queue, us []Unit) (out []Unit, failedPops uint64) {
	vs := make([]uint32, 0, len(us))
	for _, u := range us {
		if u.IsHeader() {
			q.PushDataN(vs)
			vs = vs[:0]
			q.Push(u)
			continue
		}
		vs = append(vs, u.Payload())
	}
	q.PushDataN(vs)
	q.Flush()
	dst := make([]uint32, len(us))
	for len(out) < len(us) {
		n, stop := q.PopDataN(dst[:len(us)-len(out)])
		for _, v := range dst[:n] {
			out = append(out, DataUnit(v))
		}
		switch stop {
		case PopStopHeader:
			u, ok := q.Pop()
			if !ok {
				return out, 1
			}
			out = append(out, u)
		case PopStopFail:
			return out, 1
		}
	}
	return out, 0
}

// corruptRounds drives the twins through rounds of the same seeded faults
// (CorruptPointer, CorruptLocalOffset, CorruptUnit), each followed by one
// chunk of transit, and checks after every round that they still agree.
func corruptRounds(t *testing.T, what string, atomicQ, plainQ *Queue, seed int64, chunk []Unit, transit transitFunc) {
	t.Helper()
	ra, rp := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	var failedA, failedP uint64
	for round := 0; round < 6; round++ {
		atomicQ.CorruptPointer(ra)
		atomicQ.CorruptLocalOffset(ra)
		atomicQ.CorruptUnit(ra)
		plainQ.CorruptPointer(rp)
		plainQ.CorruptLocalOffset(rp)
		plainQ.CorruptUnit(rp)
		outA, fa := transit(atomicQ, chunk)
		outP, fp := transit(plainQ, chunk)
		failedA += fa
		failedP += fp
		if failedA != failedP {
			t.Fatalf("%s round %d: %d failed pops in atomic mode, %d in sequential mode", what, round, failedA, failedP)
		}
		assertSameModes(t, fmt.Sprintf("%s, faults round %d", what, round), atomicQ, plainQ, outA, outP, failedP)
	}
}

// Batch transit must be indistinguishable from per-item transit: same
// delivered sequence, same Stats. Exercised across geometries and batch
// sizes that straddle working-set boundaries. Every op sequence also runs
// in both word modes, which must agree, before and after seeded faults.
func TestBatchMatchesPerItem(t *testing.T) {
	geoms := []Config{
		{WorkingSets: 2, WorkingSetUnits: 2, ProtectPointers: true, Timeout: time.Second},
		{WorkingSets: 4, WorkingSetUnits: 8, ProtectPointers: true, Timeout: time.Second},
		{WorkingSets: 3, WorkingSetUnits: 7, ProtectPointers: false, Timeout: time.Second},
	}
	for gi, cfg := range geoms {
		for _, stride := range []int{0, 3, 1} {
			in := mixedUnits(2*cfg.WorkingSets*cfg.WorkingSetUnits+3, stride)
			// Chunked so the queue never fills (capacity minus one working
			// set per round).
			chunk := (cfg.WorkingSets - 1) * cfg.WorkingSetUnits
			drive := func(q *Queue, transit transitFunc) []Unit {
				var out []Unit
				for i := 0; i < len(in); i += chunk {
					got, failed := transit(q, in[i:min(i+chunk, len(in))])
					if failed != 0 {
						t.Fatalf("cfg %+v stride %d: a pop failed with data published", cfg, stride)
					}
					out = append(out, got...)
				}
				return out
			}
			what := fmt.Sprintf("cfg %+v stride %d", cfg, stride)

			refA, refP := modeTwins(cfg)
			bA, bP := modeTwins(cfg)
			refOut := drive(refA, transitPerItem)
			batchOut := drive(bA, transitBatch)
			for i := range refOut {
				if refOut[i] != batchOut[i] {
					t.Fatalf("%s: unit %d differs: per-item %x batch %x", what, i, refOut[i], batchOut[i])
				}
			}
			if rs, bs := refA.Stats(), bA.Stats(); rs != bs {
				t.Errorf("%s: stats diverged\nper-item %+v\nbatch    %+v", what, rs, bs)
			}
			assertSameModes(t, what+" per-item", refA, refP, refOut, drive(refP, transitPerItem), 0)
			assertSameModes(t, what+" batch", bA, bP, batchOut, drive(bP, transitBatch), 0)

			seed := int64(100*gi + stride)
			corruptRounds(t, what+" per-item", refA, refP, seed, in[:chunk], transitPerItem)
			corruptRounds(t, what+" batch", bA, bP, seed, in[:chunk], transitBatch)
		}
	}
}

// PopDataN must stop before a header, leaving it for the per-item path,
// and report a fail (with exactly one counted timeout) when starved.
func TestPopDataNStopsAtHeaderAndFail(t *testing.T) {
	cfg := Config{WorkingSets: 4, WorkingSetUnits: 8, ProtectPointers: true, Timeout: 5 * time.Millisecond}
	q := MustNew(1, cfg)
	for i := 0; i < 5; i++ {
		q.Push(DataUnit(uint32(i)))
	}
	q.Push(HeaderUnit(7))
	q.Push(DataUnit(99))
	q.Flush()

	dst := make([]uint32, 16)
	n, stop := q.PopDataN(dst)
	if n != 5 || stop != PopStopHeader {
		t.Fatalf("PopDataN = %d,%v, want 5,PopStopHeader", n, stop)
	}
	for i := 0; i < 5; i++ {
		if dst[i] != uint32(i) {
			t.Errorf("dst[%d] = %d", i, dst[i])
		}
	}
	if u, ok := q.Pop(); !ok || !u.IsHeader() {
		t.Fatalf("header should still be next, got %v,%v", u, ok)
	}
	n, stop = q.PopDataN(dst)
	if n != 1 || dst[0] != 99 {
		t.Fatalf("after header: PopDataN = %d dst[0]=%d, want 1,99", n, dst[0])
	}
	if stop != PopStopFail {
		t.Fatalf("stop = %v, want PopStopFail on the starved tail", stop)
	}
	if got := q.Stats().PopTimeouts; got != 1 {
		t.Errorf("PopTimeouts = %d, want exactly 1 for one failed batch continuation", got)
	}
}

// Property: PushDataN/PopDataN round-trip arbitrary payload sequences for
// arbitrary geometry, matching per-item stats, and both word modes agree,
// before and after seeded faults.
func TestQuickBatchDataRoundTrip(t *testing.T) {
	f := func(values []uint32, wsUnits uint8, seed int64) bool {
		if len(values) > 300 {
			values = values[:300]
		}
		s := int(wsUnits%16) + 1
		cfg := Config{WorkingSets: 3, WorkingSetUnits: s, ProtectPointers: true, Timeout: time.Second}
		chunk := 2 * s
		run := func(q, ref *Queue) []uint32 {
			out := make([]uint32, 0, len(values))
			for i := 0; i < len(values); i += chunk {
				end := min(i+chunk, len(values))
				q.PushDataN(values[i:end])
				q.Flush()
				dst := make([]uint32, end-i)
				n, stop := q.PopDataN(dst)
				if n != len(dst) || stop != PopStopFull {
					return nil
				}
				out = append(out, dst...)

				for _, v := range values[i:end] {
					ref.Push(DataUnit(v))
				}
				ref.Flush()
				for range values[i:end] {
					ref.Pop()
				}
			}
			return out
		}
		q, qP := modeTwins(cfg)
		ref, refP := modeTwins(cfg)
		out, outP := run(q, ref), run(qP, refP)
		if len(out) != len(values) || len(outP) != len(values) {
			return false
		}
		for i := range values {
			if out[i] != values[i] || outP[i] != values[i] {
				return false
			}
		}
		if q.Stats() != ref.Stats() || qP.Stats() != q.Stats() || refP.Stats() != ref.Stats() {
			return false
		}
		units := make([]Unit, min(chunk, len(values)))
		for i := range units {
			units[i] = DataUnit(values[i])
		}
		corruptRounds(t, fmt.Sprintf("quick seed %d", seed), q, qP, seed, units, transitBatch)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
