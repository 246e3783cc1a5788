package commguard

import (
	"fmt"
	"testing"

	"commguard/internal/obs"
	"commguard/internal/queue"
)

// BenchmarkQueueTransfer measures the queue-transit layer under the cost
// claims of Tables 2-3: raw per-item Push/Pop, batch PushDataN/PopDataN,
// guarded per-item transit through the HI/AM, and guarded batch transit
// (AM.PopN). Each of these moves one item per reported op between two
// goroutines, so they are directly comparable. Sequential instead reports
// ns/frame on one goroutine, and SequentialBatch ns per 256-item round
// trip on one goroutine (see there).
//
// The committed numbers live in BENCH_micro.txt at the repository root,
// and cmd/benchdiff gates every row of it.
func BenchmarkQueueTransfer(b *testing.B) {
	qcfg := queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}
	const chunk = 256

	b.Run("PushPop", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		go func() {
			for {
				q.Push(queue.DataUnit(1))
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Pop()
		}
	})

	b.Run("PushNPopN", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		go func() {
			buf := make([]uint32, chunk)
			for {
				q.PushDataN(buf)
			}
		}()
		dst := make([]uint32, chunk)
		b.ResetTimer()
		for got := 0; got < b.N; {
			n, _ := q.PopDataN(dst)
			got += n
		}
	})

	// GuardedTransit is the steady-state cost of every guarded pop (the
	// aligned row of Table 1). The producer inserts the frame-0 header
	// through the HI so the AM's first pop matches it and the FSM settles
	// into RcvCmp; without that header the AM would sit in DiscFr and every
	// timed pop would measure the discard spin bound instead.
	//
	// The same transit runs three ways: off (nil rings, nil health), trace
	// (per-core rings wired into the queue, HI and AM) and health (latency
	// shards, the AM's fault->detection detector and live rings: what an
	// armed flight recorder costs while nothing is wrong). Event sites sit
	// only on frame boundaries and working-set exchanges, and wait timing
	// starts only after a funnel's first fast-path failure, so the only
	// per-pop addition is health's detector poll: one atomic load per
	// watched core.
	guarded := func(b *testing.B, h *obs.Health, tracer *obs.Tracer) {
		q := queue.MustNew(0, qcfg)
		q.SetTrace(tracer.Ring(0), tracer.Ring(1))
		q.SetLatency(h.QueueShards(0, 1))
		am := NewAlignmentManager(q, 0)
		am.SetTrace(tracer.Ring(1))
		am.SetDetector(h.NewDetector(1, 0, 1))
		am.NewFrameComputation(0)
		go func() {
			hi := NewHeaderInserter(q)
			hi.SetTrace(tracer.Ring(0))
			hi.NewFrameComputation(0)
			for {
				q.Push(queue.DataUnit(1))
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			am.Pop()
		}
	}
	b.Run("GuardedTransit", func(b *testing.B) {
		b.Run("off", func(b *testing.B) { guarded(b, nil, nil) })
		b.Run("trace", func(b *testing.B) { guarded(b, nil, obs.NewTracer(2, 1<<12)) })
		b.Run("health", func(b *testing.B) { guarded(b, obs.NewHealth(2), obs.NewTracer(2, 1<<12)) })
	})

	b.Run("GuardedBatch", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		am := NewAlignmentManager(q, 0)
		am.NewFrameComputation(0)
		go func() {
			hi := NewHeaderInserter(q)
			hi.NewFrameComputation(0)
			buf := make([]uint32, chunk)
			for {
				q.PushDataN(buf)
			}
		}()
		dst := make([]uint32, chunk)
		b.ResetTimer()
		for got := 0; got < b.N; got += chunk {
			am.PopN(dst)
		}
	})

	// Sequential is one frame on one guarded edge of the sequential
	// engine, which drives both sides from one goroutine: the HI's frame
	// header, a firing's PushDataN of 2 items, the per-iteration Flush
	// (one working-set exchange), then the AM's PopN. The queue is in
	// one-goroutine mode, so no word access is atomic. One op is one frame.
	b.Run("Sequential", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		q.SetSequential()
		hi := NewHeaderInserter(q)
		am := NewAlignmentManager(q, 0)
		data := []uint32{1, 2}
		dst := make([]uint32, len(data))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hi.NewFrameComputation(0)
			q.PushDataN(data)
			q.Flush()
			am.NewFrameComputation(0)
			am.PopN(dst)
		}
		b.StopTimer()
		if st := am.Stats(); st.ItemsDelivered != uint64(2*b.N) || st.DataLossItems() != 0 {
			b.Fatalf("frames did not transit intact: %+v", st)
		}
	})

	// SequentialBatch is the sequential engine's batch copy: one goroutine
	// in one-goroutine mode pushes chunk items with PushDataN, publishes
	// them with Flush and pops them back with PopDataN. One op is one
	// chunk-item round trip.
	b.Run("SequentialBatch", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		q.SetSequential()
		src := make([]uint32, chunk)
		for i := range src {
			src[i] = uint32(i)
		}
		dst := make([]uint32, chunk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.PushDataN(src)
			q.Flush()
			if n, stop := q.PopDataN(dst); n != chunk || stop != queue.PopStopFull {
				b.Fatalf("popped %d items (stop %v), want %d", n, stop, chunk)
			}
		}
	})
}

// BenchmarkGuardedFrame is the per-frame cost of CommGuard on one edge of
// the sequential engine, as frames of r items cross it: the HI's header,
// a firing's PushDataN of r items, the per-iteration Flush (one
// working-set exchange), the AM's frame event and its PopN of the r items
// (the expected-header compare, then the batch pop). One op is one frame;
// ns/frame is the same figure under its own unit. r = 1 and 3 are the
// per-sample apps' edge rates, where the per-frame work dominates; at
// r = 64 it is spread over the items.
func BenchmarkGuardedFrame(b *testing.B) {
	for _, r := range []int{1, 3, 64} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			q := queue.MustNew(0, queue.Config{WorkingSets: 8, WorkingSetUnits: 256, ProtectPointers: true})
			q.SetSequential()
			hi := NewHeaderInserter(q)
			am := NewAlignmentManager(q, 0)
			data := make([]uint32, r)
			dst := make([]uint32, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hi.NewFrameComputation(uint32(i))
				q.PushDataN(data)
				q.Flush()
				am.NewFrameComputation(uint32(i))
				am.PopN(dst)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
			if st := am.Stats(); st.ItemsDelivered != uint64(r*b.N) || st.DataLossItems() != 0 {
				b.Fatalf("frames did not transit intact: %+v", st)
			}
		})
	}
}
