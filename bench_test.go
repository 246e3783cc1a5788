// Package commguard_test hosts the repository-level benchmark harness:
// one benchmark per table/figure of the paper's evaluation (§7), each
// regenerating its figure's data on the reduced "quick" sweep so that
// `go test -bench=. -benchmem` reproduces every result end to end.
// `cmd/experiments` runs the full-size sweeps.
package commguard_test

import (
	"math"
	"testing"

	"commguard/internal/apps"
	"commguard/internal/commguard"
	"commguard/internal/experiments"
	"commguard/internal/fault"
	"commguard/internal/obs"
	"commguard/internal/queue"
	"commguard/internal/sim"
)

func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Seeds = 1
	o.MTBEs = []float64{64e3, 1024e3}
	o.FrameScales = []int{1, 4}
	return o
}

// BenchmarkFigure3ProtectionConfigs regenerates the motivating jpeg
// comparison: error-free vs software-queue vs reliable-queue vs CommGuard
// at MTBE 1M. Reports CommGuard's PSNR advantage over the unguarded
// reliable queue as a custom metric.
func BenchmarkFigure3ProtectionConfigs(b *testing.B) {
	o := benchOptions()
	var adv float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(o)
		if err != nil {
			b.Fatal(err)
		}
		var cg, rq float64
		for _, r := range rows {
			switch r.Protection {
			case sim.CommGuard:
				cg = r.MeanPSNR
			case sim.ReliableQueue:
				rq = r.MeanPSNR
			}
		}
		adv = cg - rq
	}
	b.ReportMetric(adv, "dB-advantage")
}

// BenchmarkFigure7ExampleRun regenerates the annotated jpeg example run at
// MTBE 512k (pad/discard counting).
func BenchmarkFigure7ExampleRun(b *testing.B) {
	o := benchOptions()
	var res *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(o)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.PSNR, "dB")
	b.ReportMetric(float64(res.Pads+res.Discards), "pad+discard-items")
}

// BenchmarkFigure8DataLoss regenerates the lost-data-ratio sweep across
// all six benchmarks.
func BenchmarkFigure8DataLoss(b *testing.B) {
	o := benchOptions()
	var worst float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure8(o)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, s := range series {
			for _, p := range s.Points {
				if p.LossRatio.Mean > worst {
					worst = p.LossRatio.Mean
				}
			}
		}
	}
	b.ReportMetric(worst, "worst-loss-ratio")
}

// BenchmarkFigure9VisualQuality regenerates the jpeg PSNR-vs-MTBE example
// points.
func BenchmarkFigure9VisualQuality(b *testing.B) {
	o := benchOptions()
	var span float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure9(o)
		if err != nil {
			b.Fatal(err)
		}
		span = pts[len(pts)-1].PSNR - pts[0].PSNR
	}
	b.ReportMetric(span, "dB-recovery-span")
}

// BenchmarkFigure10MediaQuality regenerates jpeg/mp3 quality vs MTBE and
// frame size.
func BenchmarkFigure10MediaQuality(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11StreamQuality regenerates the non-media benchmarks'
// SNR curves.
func BenchmarkFigure11StreamQuality(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12MemoryOverhead regenerates the header memory-event
// shares and reports the geometric mean.
func BenchmarkFigure12MemoryOverhead(b *testing.B) {
	o := benchOptions()
	var gmeanLoads float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(o)
		if err != nil {
			b.Fatal(err)
		}
		gmeanLoads = rows[len(rows)-1].LoadRatio
	}
	b.ReportMetric(100*gmeanLoads, "gmean-header-load-%")
}

// BenchmarkFigure13RuntimeOverhead regenerates the wall-clock overhead of
// CommGuard over plain reliable queues.
func BenchmarkFigure13RuntimeOverhead(b *testing.B) {
	o := benchOptions()
	o.FrameScales = []int{1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(o, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure14Suboperations regenerates the CommGuard suboperation
// accounting (Tables 2-3 categories) and reports the worst benchmark's
// total share.
func BenchmarkFigure14Suboperations(b *testing.B) {
	o := benchOptions()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14(o)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Total > worst {
				worst = r.Total
			}
		}
	}
	b.ReportMetric(100*worst, "worst-subop-%")
}

// BenchmarkTable1AlignmentManager measures the per-pop cost of the AM FSM
// (Table 1) on an aligned stream — the steady-state overhead every
// guarded pop pays. The producer inserts the frame-0 header through the
// HI so the AM's first pop matches it and the FSM settles into RcvCmp;
// without that header the AM would sit in DiscFr and every timed pop
// would measure the discard spin bound instead of steady-state transit
// (which is what the pre-overhaul version of this benchmark did).
func BenchmarkTable1AlignmentManager(b *testing.B) {
	qcfg := queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}
	q := queue.MustNew(0, qcfg)
	am := commguard.NewAlignmentManager(q, 0)
	am.NewFrameComputation(0)
	go func() {
		hi := commguard.NewHeaderInserter(q)
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

// BenchmarkQueueTransfer measures ns/item for the four hot-path transit
// variants the overhaul targets: raw per-item Push/Pop, batch
// PushDataN/PopDataN, guarded per-item transit through the HI/AM, and
// guarded batch transit (AM.PopN). Each of these moves one item per
// reported op between two goroutines, so they are directly comparable.
// The same measurements back `cmd/experiments -benchjson`
// (BENCH_hotpath.json). Sequential instead reports ns/frame on one
// goroutine (see there).
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

	b.Run("GuardedTransit", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		am := commguard.NewAlignmentManager(q, 0)
		am.NewFrameComputation(0)
		go func() {
			hi := commguard.NewHeaderInserter(q)
			hi.NewFrameComputation(0)
			for {
				q.Push(queue.DataUnit(1))
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			am.Pop()
		}
	})

	b.Run("GuardedBatch", func(b *testing.B) {
		q := queue.MustNew(0, qcfg)
		am := commguard.NewAlignmentManager(q, 0)
		am.NewFrameComputation(0)
		go func() {
			hi := commguard.NewHeaderInserter(q)
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
		hi := commguard.NewHeaderInserter(q)
		am := commguard.NewAlignmentManager(q, 0)
		data := []uint32{1, 2}
		dst := make([]uint32, len(data))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hi.NewFrameComputation(0)
			hi.PushData(data)
			q.Flush()
			am.NewFrameComputation(0)
			am.PopN(dst)
		}
		b.StopTimer()
		if st := am.Stats(); st.ItemsDelivered != uint64(2*b.N) || st.DataLossItems() != 0 {
			b.Fatalf("frames did not transit intact: %+v", st)
		}
	})
}

// BenchmarkTables23GuardedTransit measures the end-to-end per-item cost of
// a guarded edge (QM push + AM pop + header amortization), the hardware
// suboperation path of Tables 2-3.
func BenchmarkTables23GuardedTransit(b *testing.B) {
	builder, _ := apps.ByName("complex-fir")
	inst, err := builder.New()
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(inst, sim.Config{Protection: sim.CommGuard}, nil)
	if err != nil {
		b.Fatal(err)
	}
	itemsMoved := res.Run.QueueTotals().ItemLoads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := builder.New()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(inst, sim.Config{Protection: sim.CommGuard}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(itemsMoved), "items/run")
}

// BenchmarkAblationHeaderIDs quantifies the design choice DESIGN.md calls
// out: CommGuard's ID-carrying headers vs a count-only checker (which, on
// the consumer side, is equivalent to the unchecked reliable queue because
// producer miscounts are invisible without in-band markers). Reports the
// quality gap on mp3 at MTBE 256k.
func BenchmarkAblationHeaderIDs(b *testing.B) {
	builder, _ := apps.ByName("mp3")
	run := func(p sim.Protection, seed int64) float64 {
		res, err := sim.RunBenchmark(builder, sim.Config{Protection: p, MTBE: 256e3, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		q := res.Quality
		if math.IsInf(q, 1) {
			q = 60
		}
		if math.IsNaN(q) || q < -20 {
			q = -20
		}
		return q
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		const seeds = 2
		var with, without float64
		for s := int64(0); s < seeds; s++ {
			with += run(sim.CommGuard, 50+s)
			without += run(sim.ReliableQueue, 50+s)
		}
		gap = (with - without) / seeds
	}
	b.ReportMetric(gap, "dB-gap")
}

// BenchmarkAblationFrameScale quantifies the frame-size knob (§5.4): the
// header count reduction from x1 to x8 frames on mp3.
func BenchmarkAblationFrameScale(b *testing.B) {
	builder, _ := apps.ByName("mp3")
	var reduction float64
	for i := 0; i < b.N; i++ {
		headers := func(scale int) float64 {
			res, err := sim.RunBenchmark(builder, sim.Config{Protection: sim.CommGuard, FrameScale: scale})
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Guard.HI.HeadersInserted)
		}
		reduction = headers(1) / headers(8)
	}
	b.ReportMetric(reduction, "header-reduction-x")
}

// BenchmarkAblationClassSensitivity isolates each §3 error class and
// reports CommGuard's advantage on the control-flow classes (the
// conversion the paper's title promises).
func BenchmarkAblationClassSensitivity(b *testing.B) {
	o := benchOptions()
	o.Seeds = 2
	var tripAdvantage float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ClassSensitivity(o, "mp3", 30_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Class == fault.ControlTrip {
				tripAdvantage = r.GuardedDB - r.PlainDB
			}
		}
	}
	b.ReportMetric(tripAdvantage, "dB-advantage-on-trips")
}

// BenchmarkTraceOverhead compares guarded per-item transit with tracing
// disabled (nil rings, the default) against tracing enabled (per-core
// obs rings wired into the queue and AM). Event sites sit only on frame
// boundaries and working-set exchanges, so the two sub-benchmarks should
// be within noise of each other — and of BenchmarkQueueTransfer/GuardedTransit.
func BenchmarkTraceOverhead(b *testing.B) {
	qcfg := queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}
	run := func(b *testing.B, tracer *obs.Tracer) {
		q := queue.MustNew(0, qcfg)
		q.SetTrace(tracer.Ring(0), tracer.Ring(1))
		am := commguard.NewAlignmentManager(q, 0)
		am.SetTrace(tracer.Ring(1))
		am.NewFrameComputation(0)
		go func() {
			hi := commguard.NewHeaderInserter(q)
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
	b.Run("Disabled", func(b *testing.B) { run(b, nil) })
	b.Run("Enabled", func(b *testing.B) { run(b, obs.NewTracer(2, 1<<12)) })
}

// TestTraceDisabledNoAllocs pins the zero-allocation contract of the
// guarded pop path, with tracing disabled (the nil-ring branch) and
// enabled (in-place ring writes).
func TestTraceDisabledNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"disabled", nil},
		{"enabled", obs.NewTracer(1, 1<<10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := queue.MustNew(0, queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 0})
			q.SetTrace(tc.tracer.Ring(0), tc.tracer.Ring(0))
			hi := commguard.NewHeaderInserter(q)
			hi.SetTrace(tc.tracer.Ring(0))
			hi.NewFrameComputation(0)
			for i := 0; i < 128; i++ {
				q.Push(queue.DataUnit(uint32(i)))
			}
			q.Flush()
			am := commguard.NewAlignmentManager(q, 0)
			am.SetTrace(tc.tracer.Ring(0))
			am.NewFrameComputation(0)
			if allocs := testing.AllocsPerRun(100, func() { am.Pop() }); allocs != 0 {
				t.Errorf("guarded pop allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkHealthOverhead compares guarded per-item transit with the
// runtime-health layer disarmed (nil shards and detector, the default)
// against fully armed: latency shards wired into the queue funnels, the
// AM's fault→detection detector observing every pop, and the trace
// rings running (what an armed flight recorder costs while nothing is
// wrong). Wait timing starts only after a funnel's first fast-path
// failure and the detector poll is one atomic load per watched core, so
// the armed variant must stay within a few percent of the baseline.
func BenchmarkHealthOverhead(b *testing.B) {
	qcfg := queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}
	run := func(b *testing.B, h *obs.Health, tracer *obs.Tracer) {
		q := queue.MustNew(0, qcfg)
		q.SetTrace(tracer.Ring(0), tracer.Ring(1))
		q.SetLatency(h.QueueShards(0, 1))
		am := commguard.NewAlignmentManager(q, 0)
		am.SetTrace(tracer.Ring(1))
		am.SetDetector(h.NewDetector(1, 0, 1))
		am.NewFrameComputation(0)
		go func() {
			hi := commguard.NewHeaderInserter(q)
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
	b.Run("Disarmed", func(b *testing.B) { run(b, nil, nil) })
	b.Run("Armed", func(b *testing.B) { run(b, obs.NewHealth(2), obs.NewTracer(2, 1<<12)) })
}

// TestHealthArmedNoAllocs pins the zero-allocation contract of the
// guarded pop path with the full runtime-health layer armed: queue
// latency shards, the AM detector, and live trace rings.
func TestHealthArmedNoAllocs(t *testing.T) {
	tracer := obs.NewTracer(2, 1<<10)
	h := obs.NewHealth(2)
	q := queue.MustNew(0, queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 0})
	q.SetTrace(tracer.Ring(0), tracer.Ring(1))
	q.SetLatency(h.QueueShards(0, 1))
	hi := commguard.NewHeaderInserter(q)
	hi.SetTrace(tracer.Ring(0))
	hi.NewFrameComputation(0)
	for i := 0; i < 128; i++ {
		q.Push(queue.DataUnit(uint32(i)))
	}
	q.Flush()
	am := commguard.NewAlignmentManager(q, 0)
	am.SetTrace(tracer.Ring(1))
	am.SetDetector(h.NewDetector(1, 0, 1))
	am.NewFrameComputation(0)
	if allocs := testing.AllocsPerRun(100, func() { am.Pop() }); allocs != 0 {
		t.Errorf("health-armed guarded pop allocates %.1f objects/op, want 0", allocs)
	}
}
