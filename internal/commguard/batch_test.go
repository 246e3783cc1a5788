package commguard

import (
	"testing"
	"time"

	"commguard/internal/queue"
)

// batchScriptQueue fills a queue with framed traffic: nFrames frames of
// frameLen data items, each preceded by its header, then an EOC header.
func batchScriptQueue(t *testing.T, id, nFrames, frameLen int) *queue.Queue {
	t.Helper()
	cfg := queue.Config{WorkingSets: 8, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 2 * time.Millisecond}
	q := queue.MustNew(id, cfg)
	hi := NewHeaderInserter(q)
	v := uint32(0)
	for f := 0; f < nFrames; f++ {
		hi.NewFrameComputation(uint32(f))
		for i := 0; i < frameLen; i++ {
			q.Push(queue.DataUnit(v))
			v++
		}
	}
	hi.EndOfComputation()
	return q
}

// AM.PopN must deliver exactly what the same number of Pop calls would:
// same values, same OpCounters, same AMStats, same queue.Stats — across
// frame boundaries (header FSM path), the EOC transition into Pdg, and a
// starved tail (timeout pads).
func TestAlignmentManagerPopNMatchesPop(t *testing.T) {
	const nFrames, frameLen = 4, 37
	total := nFrames*frameLen + 6 // overrun into Pdg padding after EOC

	qRef := batchScriptQueue(t, 1, nFrames, frameLen)
	amRef := NewAlignmentManager(qRef, 0)
	qBat := batchScriptQueue(t, 2, nFrames, frameLen)
	amBat := NewAlignmentManager(qBat, 0)

	ref := make([]uint32, 0, total)
	for f := 0; f < nFrames; f++ {
		amRef.NewFrameComputation(uint32(f))
		for i := 0; i < frameLen; i++ {
			ref = append(ref, amRef.Pop())
		}
	}
	for i := nFrames * frameLen; i < total; i++ {
		ref = append(ref, amRef.Pop())
	}

	bat := make([]uint32, 0, total)
	for f := 0; f < nFrames; f++ {
		amBat.NewFrameComputation(uint32(f))
		dst := make([]uint32, frameLen)
		amBat.PopN(dst)
		bat = append(bat, dst...)
	}
	tail := make([]uint32, total-nFrames*frameLen)
	amBat.PopN(tail)
	bat = append(bat, tail...)

	for i := range ref {
		if ref[i] != bat[i] {
			t.Fatalf("item %d: per-item %d, batch %d", i, ref[i], bat[i])
		}
	}
	if amRef.Ops() != amBat.Ops() {
		t.Errorf("ops diverged:\nper-item %+v\nbatch    %+v", amRef.Ops(), amBat.Ops())
	}
	if amRef.Stats() != amBat.Stats() {
		t.Errorf("AM stats diverged:\nper-item %+v\nbatch    %+v", amRef.Stats(), amBat.Stats())
	}
	if qRef.Stats() != qBat.Stats() {
		t.Errorf("queue stats diverged:\nper-item %+v\nbatch    %+v", qRef.Stats(), qBat.Stats())
	}
	if amRef.State() != amBat.State() {
		t.Errorf("FSM state diverged: per-item %v, batch %v", amRef.State(), amBat.State())
	}
}

// A starved queue (no producer, no EOC) must pad each batch element with
// one counted timeout apiece, exactly like per-item pops.
func TestAlignmentManagerPopNStarved(t *testing.T) {
	cfg := queue.Config{WorkingSets: 4, WorkingSetUnits: 8, ProtectPointers: true, Timeout: time.Millisecond}
	q := queue.MustNew(1, cfg)
	am := NewAlignmentManager(q, 42)
	dst := make([]uint32, 5)
	am.PopN(dst)
	for i, v := range dst {
		if v != 42 {
			t.Errorf("dst[%d] = %d, want pad 42", i, v)
		}
	}
	st := am.Stats()
	if st.TimeoutPads != 5 || st.PaddedItems != 5 {
		t.Errorf("TimeoutPads/PaddedItems = %d/%d, want 5/5", st.TimeoutPads, st.PaddedItems)
	}
	if qt := q.Stats().PopTimeouts; qt != 5 {
		t.Errorf("queue PopTimeouts = %d, want 5 (one per padded element)", qt)
	}
}

// A firing's PushDataN between the HI's frame events must equal per-item
// pushes.
func TestHeaderInserterPushDataMatchesPush(t *testing.T) {
	cfg := queue.Config{WorkingSets: 4, WorkingSetUnits: 16, ProtectPointers: true, Timeout: time.Millisecond}
	qRef := queue.MustNew(1, cfg)
	hiRef := NewHeaderInserter(qRef)
	qBat := queue.MustNew(2, cfg)
	hiBat := NewHeaderInserter(qBat)

	vs := make([]uint32, 23)
	for i := range vs {
		vs[i] = uint32(i * 3)
	}
	hiRef.NewFrameComputation(0)
	for _, v := range vs {
		qRef.Push(queue.DataUnit(v))
	}
	hiRef.EndOfComputation()

	hiBat.NewFrameComputation(0)
	qBat.PushDataN(vs)
	hiBat.EndOfComputation()

	if qRef.Stats() != qBat.Stats() {
		t.Errorf("queue stats diverged:\nper-item %+v\nbatch    %+v", qRef.Stats(), qBat.Stats())
	}
	for {
		ur, okr := qRef.Pop()
		ub, okb := qBat.Pop()
		if okr != okb || ur != ub {
			t.Fatalf("transit diverged: per-item %v,%v batch %v,%v", ur, okr, ub, okb)
		}
		if !okr {
			break
		}
	}
}
