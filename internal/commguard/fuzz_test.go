package commguard

import (
	"reflect"
	"testing"
	"time"

	"commguard/internal/obs"
	"commguard/internal/queue"
)

// amRun is one Alignment Manager's pass over a fuzz script: what it
// delivered, and every counter and consumer-side trace event.
type amRun struct {
	out     []uint32
	ops     OpCounters
	stats   AMStats
	state   AMState
	qstats  queue.Stats
	events  []obs.Event
	dropped uint64
}

// maxScriptFrames bounds a script so that, pushed whole before any pop,
// it fits the queue without a producer timeout: at most 9 units a frame.
const maxScriptFrames = 48

// runAMScript plays a script of 3-byte frame records through a producer,
// a queue and an AM whose frames start at wire ID start, popping with
// popN. Per frame, byte 0 is the producer's: its low 3 bits are the
// items pushed (0..7) and its next 3 bits the header, 0..3 clean, 4 one
// codeword bit flipped (a corrected header), 5 two bits flipped (an
// uncorrectable one), 6 none (lost), 7 clean but after a stray header
// (past, future or EOC by byte 2). Byte 1 is the consumer's: its low 4
// bits are the pops of the frame (0..8), the high 4 bits where a first
// PopN call stops and a second takes the rest. Byte 2 picks the flipped
// bits and the stray. After the script the producer sends EOC and the
// consumer pops two more frames of 4.
//
// sequential runs the queue in one-goroutine mode with each frame
// published before the consumer's (the sequential engine's lockstep);
// otherwise the queue keeps its atomic accessors and the whole stream,
// working sets and all, is pushed and closed before the first pop.
func runAMScript(script []byte, start uint32, sequential, traced bool, popN func(*AlignmentManager, []uint32)) amRun {
	q := queue.MustNew(0, queue.Config{
		WorkingSets: 8, WorkingSetUnits: 64,
		ProtectPointers: true, Timeout: time.Millisecond,
	})
	if sequential {
		q.SetSequential()
	}
	am := NewAlignmentManager(q, 0xAB)
	am.domain = domainAt(1, uint64(start))
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(1, 1<<14)
		q.SetTrace(nil, tracer.Ring(0))
		am.SetTrace(tracer.Ring(0))
	}
	coder := q.Coder()
	width := coder.Width()

	frames := min(len(script)/3, maxScriptFrames)
	produce := func(f int) {
		b0, b2 := script[3*f], script[3*f+2]
		fc := start + uint32(f)
		hdr := queue.EncodeHeader(coder, fc)
		switch (b0 >> 3) & 7 {
		case 4:
			hdr ^= 1 << (int(b2) % width)
		case 5:
			i := int(b2) % width
			hdr ^= 1<<i | 1<<((i+1+int(b2>>4))%width)
		case 6:
			hdr = 0
		case 7:
			stray := [...]uint32{fc - 1, fc + 2, queue.EOCHeaderID}[b2%3]
			q.Push(queue.EncodeHeader(coder, stray))
		}
		if hdr != 0 {
			q.Push(hdr)
		}
		for i := 0; i < int(b0&7); i++ {
			q.Push(queue.DataUnit(uint32(f)<<8 | uint32(i)))
		}
	}
	end := func() {
		q.Push(queue.EncodeHeader(coder, queue.EOCHeaderID))
		q.Flush()
	}
	var out []uint32
	consume := func(pops, split int) {
		am.NewFrameComputation(0)
		dst := make([]uint32, pops)
		split %= pops + 1
		popN(am, dst[:split])
		popN(am, dst[split:])
		out = append(out, dst...)
	}

	if !sequential {
		for f := 0; f < frames; f++ {
			produce(f)
		}
		end()
		q.Close()
	}
	for f := 0; f < frames; f++ {
		if sequential {
			produce(f)
			q.Flush()
		}
		b1 := script[3*f+1]
		consume(min(int(b1&15), 8), int(b1>>4))
	}
	if sequential {
		end()
	}
	consume(4, 2)
	consume(4, 0)

	r := amRun{out: out, ops: am.Ops(), stats: am.Stats(), state: am.State(), qstats: q.Stats()}
	if tr := tracer.Collect([]string{"consumer"}, []string{"edge"}); tr != nil {
		for _, e := range tr.Events {
			e.Nanos = 0
			r.events = append(r.events, e)
		}
		r.dropped = tr.Dropped
	}
	return r
}

// FuzzAlignmentManagerPop drives the AM's PopN, with its expected-header
// compare, against refPopN, its former form that takes every unit outside
// RcvCmp through the per-item Pop FSM (reference_test.go), on the same
// unit stream: frames of 0..7 items behind clean, corrected,
// uncorrectable, lost or stray headers, popped at 0..8 per frame, so the
// two diverge only if the compare takes a unit the FSM would not take as
// the active frame's header. A frame popped at 0 lets the next frame
// event land while the AM waits in ExpHdr. Delivered values, OpCounters,
// AMStats, the FSM state, queue.Stats and, traced, every consumer-side
// trace event must match; untraced, the same counters must (setState
// books the ordinary rollover inline only then). The seed corpus plants
// the two ways the compare can go wrong: a codeword left stale by a frame
// event in ExpHdr, and active-fc reaching 0xFFFFFFFF, whose header is the
// EOC marker that must end the computation. Run with `go test -fuzz
// FuzzAlignmentManagerPop ./internal/commguard`; the seed corpus runs in
// ordinary test mode.
func FuzzAlignmentManagerPop(f *testing.F) {
	clean := []byte{0x02, 0x02, 0, 0x03, 0x03, 0, 0x01, 0x01, 0}
	f.Add(clean, uint32(0), true)
	f.Add(clean, uint32(0), false)
	// Frame 1 popped at 0: frame 2's event lands in ExpHdr before frame
	// 1's header was taken.
	f.Add([]byte{0x02, 0x02, 0, 0x02, 0x00, 0, 0x02, 0x02, 0, 0x02, 0x02, 0}, uint32(5), true)
	// Active-fc reaches 0xFFFFFFFF, the EOC ID, behind a clean header.
	f.Add([]byte{0x02, 0x02, 0, 0x02, 0x02, 0, 0x02, 0x02, 0}, uint32(0xFFFFFFFD), true)
	f.Add([]byte{0x02, 0x02, 0, 0x02, 0x02, 0, 0x02, 0x02, 0}, uint32(0xFFFFFFFD), false)
	// Corrected, uncorrectable, lost and stray headers; short and long
	// frames; pops split across two calls.
	f.Add([]byte{0x22, 0x32, 7, 0x2a, 0x23, 9, 0x33, 0x72, 1, 0x3d, 0x14, 2, 0x01, 0x08, 0, 0x3a, 0x24, 0}, uint32(1), true)
	f.Add([]byte{0x22, 0x32, 7, 0x2a, 0x23, 9, 0x33, 0x72, 1, 0x3d, 0x14, 2, 0x01, 0x08, 0, 0x3a, 0x24, 0}, uint32(1), false)
	f.Add([]byte{0x07, 0x05, 0, 0x00, 0x08, 0, 0x05, 0x18, 0, 0x38, 0x03, 1}, uint32(100), true)

	f.Fuzz(func(t *testing.T, script []byte, start uint32, sequential bool) {
		// Each script also runs with active-fc reaching 0xFFFFFFFF by its
		// fourth frame, which random starts almost never do.
		for _, run := range []struct {
			start  uint32
			traced bool
		}{{start, false}, {start, true}, {queue.EOCHeaderID - start%4, false}} {
			start, traced := run.start, run.traced
			got := runAMScript(script, start, sequential, traced, (*AlignmentManager).PopN)
			want := runAMScript(script, start, sequential, traced, refPopN)
			if got.dropped != 0 || want.dropped != 0 {
				t.Fatalf("trace ring overflowed: %d/%d events dropped", got.dropped, want.dropped)
			}
			if s := got.state; s < RcvCmp || s > Pdg {
				t.Fatalf("FSM in undefined state %d", s)
			}
			if st := got.stats; st.ItemsDelivered+st.PaddedItems != uint64(len(got.out)) {
				t.Fatalf("accounting broken: delivered %d + padded %d != pops %d",
					st.ItemsDelivered, st.PaddedItems, len(got.out))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("traced=%v: PopN diverged from the per-item reference\nPopN      %+v\nreference %+v", traced, got, want)
			}
		}
	})
}
