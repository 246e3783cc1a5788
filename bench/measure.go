package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"commguard/internal/apps"
	"commguard/internal/sim"
)

// watchdog bounds one run: it cancels the run through sim.Config.Cancel,
// and the run counts as failed.
const watchdog = 10 * time.Second

// recheckStride: without golden digests, every recheckStride-th
// fault-injected job is run again after measuring and must reproduce its
// digest.
const recheckStride = 32

var errWatchdog = errors.New("watchdog tripped")

// bench is one workload prepared for measuring.
type bench struct {
	w        *workload
	seedBase uint64
	builders map[string]apps.Builder
	// expected is each app's sequential error-free output. Error-free runs
	// must reproduce it bit for bit; self-referenced apps are scored
	// against it (jpeg and mp3 carry their own media reference).
	expected map[string][]float64
	// golden holds this seed base's fault-campaign digests, or nil.
	golden    []uint64
	useGolden bool
}

// prepare sets the workload up, then runs one untimed warm-up round whose
// outcomes are dropped; the measurement runs the same jobs again.
func prepare(w *workload, seedBase uint64, useGolden bool) (*bench, error) {
	b, err := setUp(w, seedBase, useGolden)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	cursor := 0
	b.run(&cursor, func(next int, _ time.Duration) bool { return next == len(w.round) }, nil)
	return b, nil
}

// timeSetUp times one more set-up of the workload, from a freshly
// collected heap so that every sample starts from the same
// garbage-collector state. The set-up itself is dropped.
func (b *bench) timeSetUp() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if _, err := setUp(b.w, b.seedBase, b.useGolden); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", b.w.name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// setUp is the phase setup_s times: one instance and one sequential
// error-free reference run per app, and golden loading.
func setUp(w *workload, seedBase uint64, useGolden bool) (*bench, error) {
	b := &bench{w: w, seedBase: seedBase, useGolden: useGolden, builders: map[string]apps.Builder{}, expected: map[string][]float64{}}
	for _, name := range w.apps() {
		bl, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", name)
		}
		inst, err := bl.New()
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(inst, sim.Config{Protection: sim.ErrorFree, Sequential: true}, nil)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		b.builders[name] = bl
		b.expected[name] = res.Output
	}
	if w.injects() && useGolden {
		g, err := loadGolden(w, seedBase)
		if err != nil {
			return nil, err
		}
		b.golden = g
	}
	return b, nil
}

// runRecord is one run's outcome.
type runRecord struct {
	job  int
	kind int
	// ms is the run's time from Builder.New to the return of sim.Run.
	ms float64
	// digest fingerprints a fault-injected run (see digest).
	digest uint64
	err    error
}

// setupSample is one timed set-up: s seconds, taken just before the run
// with index next.
type setupSample struct {
	s    float64
	next int
}

// run is the closed loop: it runs jobs from *cursor one after another. At
// each round boundary after the first round, stop(next job, elapsed)
// decides whether to go on.
func (b *bench) run(cursor *int, stop func(next int, elapsed time.Duration) bool, tr *tracer) ([]runRecord, time.Duration) {
	var recs []runRecord
	start := time.Now()
	for j := *cursor; ; j++ {
		if j > *cursor && j%len(b.w.round) == 0 && stop(j, time.Since(start)) {
			*cursor = j
			return recs, time.Since(start)
		}
		recs = append(recs, b.runJob(j, tr))
	}
}

// runJob builds and runs job j the way a fault-injection campaign does,
// and checks its output. With a tracer it also re-times the quality
// score and records the run's spans and layer counters.
func (b *bench) runJob(j int, tr *tracer) runRecord {
	kind, round := b.w.spec(j)
	s := b.w.round[kind]
	cfg := sim.Config{Protection: s.protection, MTBE: s.mtbe, Sequential: true, Health: tr != nil}
	if s.mtbe > 0 {
		cfg.Seed = seedFor(b.seedBase, round)
	}
	cancel := make(chan struct{})
	cfg.Cancel = cancel
	wd := time.AfterFunc(watchdog, func() { close(cancel) })

	t0 := time.Now()
	inst, err := b.builders[s.app].New()
	t1 := time.Now()
	var res *sim.Result
	if err == nil {
		res, err = sim.Run(inst, cfg, b.expected[s.app])
	}
	t2 := time.Now()
	if !wd.Stop() && err == nil {
		err = errWatchdog
	}
	rec := runRecord{job: j, kind: kind, ms: ms(t2.Sub(t0))}
	if err == nil {
		rec.digest, err = b.check(j, s, res)
	}
	if err != nil {
		rec.err = fmt.Errorf("job %d (%s): %w", j, s, err)
		return rec
	}
	if tr != nil {
		ref := inst.Reference
		if ref == nil {
			ref = b.expected[s.app]
		}
		t3 := time.Now()
		inst.Quality(res.Output, ref)
		t4 := time.Now()
		tr.add(j, s, res, [5]time.Time{t0, t1, t2, t3, t4})
	}
	return rec
}

// check verifies one run. An error-free run must reproduce the sequential
// error-free reference bit for bit and never time out on a queue. A
// fault-injected run must match its golden digest, when there is one.
func (b *bench) check(j int, s jobSpec, res *sim.Result) (uint64, error) {
	if s.mtbe == 0 {
		qt := res.Run.QueueTotals()
		if n := qt.PushTimeouts + qt.PopTimeouts; n > 0 {
			return 0, fmt.Errorf("%d queue timeouts in an error-free run", n)
		}
		want := b.expected[s.app]
		if len(res.Output) != len(want) {
			return 0, fmt.Errorf("output has %d samples, reference %d", len(res.Output), len(want))
		}
		for i, v := range res.Output {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				return 0, fmt.Errorf("output sample %d is %v, reference %v", i, v, want[i])
			}
		}
		return 0, nil
	}
	d := digest(res)
	if b.golden != nil {
		if g := b.golden[j%len(b.golden)]; d != g {
			return d, fmt.Errorf("digest %016x, golden %016x", d, g)
		}
	}
	return d, nil
}

// result is one measured run of a workload.
type result struct {
	Workload  string `json:"workload"`
	Set       int    `json:"set,omitempty"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Golden is "verified" or "unverified" for fault-injected workloads.
	Golden string `json:"golden,omitempty"`
	// Rechecked counts unverified runs repeated to confirm their digest.
	Rechecked int                `json:"rechecked,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// SpanSelfMs is the mean self time per run of each bench-side span.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
	// Errors lists the first failures.
	Errors []string `json:"errors,omitempty"`

	spans []span
}

const maxErrors = 5

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// measure runs the workload for seconds, cut into equal slices. Untraced,
// it reports the end-to-end metrics. Traced, it alternates untraced and
// traced slices and reports the per-layer metrics, with the tracing
// overhead taken between the two.
//
// Before every slice it times one set-up, outside the slice's time, so
// that the set-up samples span the whole run.
func (b *bench) measure(seconds float64, nSlices int, traced bool) *result {
	r := &result{Workload: b.w.name, Traced: traced}
	if b.w.injects() {
		r.Golden = "unverified"
		if b.golden != nil {
			r.Golden = "verified"
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	budget := time.Duration(seconds / float64(nSlices) * float64(time.Second))
	stop := func(_ int, elapsed time.Duration) bool { return elapsed >= budget }
	var rates, tracedRates []float64
	var recs []runRecord
	var allocBytes uint64
	var setups []setupSample
	cursor := 0
	for i := 0; i < nSlices; i++ {
		if s, err := b.timeSetUp(); err != nil {
			r.fail(err)
		} else {
			setups = append(setups, setupSample{s: s, next: len(recs)})
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var st *tracer
		if traced && i%2 == 1 {
			st = tr
		}
		sr, elapsed := b.run(&cursor, stop, st)
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		rate := float64(len(sr)) / elapsed.Seconds()
		if st != nil {
			tracedRates = append(tracedRates, rate)
		} else {
			rates = append(rates, rate)
		}
		recs = append(recs, sr...)
	}

	r.Attempted = len(recs)
	for _, rec := range recs {
		if rec.err != nil {
			r.fail(rec.err)
		}
	}
	if b.w.injects() && b.golden == nil {
		b.recheck(r, recs)
	}
	if traced {
		overhead := 100 * (median(rates)/median(tracedRates) - 1)
		r.Metrics = tr.layers(overhead)
		r.SpanSelfMs = tr.selfTimes()
		r.spans = tr.spans
		if err := tr.closure(); err != nil {
			r.fail(err)
		}
	} else {
		r.Metrics = b.endToEnd(recs, rates, allocBytes, setups)
	}
	r.Correct = r.Failed == 0
	return r
}

// recheck runs every recheckStride-th successful job again; a different
// digest fails the measured run.
func (b *bench) recheck(r *result, recs []runRecord) {
	for _, rec := range recs {
		if rec.err != nil || rec.job%recheckStride != 0 {
			continue
		}
		r.Rechecked++
		again := b.runJob(rec.job, nil)
		switch {
		case again.err != nil:
			r.fail(fmt.Errorf("recheck: %w", again.err))
		case again.digest != rec.digest:
			r.fail(fmt.Errorf("recheck: job %d digest %016x, measured run %016x", rec.job, again.digest, rec.digest))
		}
	}
}

// endToEnd derives the end-to-end metrics and the ungated context ones.
// Run times are summarized per job kind and combined by geometric mean,
// so every kind weighs the same whatever its length. run_ms_min uses each
// kind's fastest run: on a shared host, interference only ever adds time,
// and the fastest of many runs repeats where medians drift with the
// neighbours' load. run_ms_p90 scales run_ms_p50 by the pooled 90th
// percentile of each run's time over its kind's median, so the tail has
// enough samples even when a kind has few.
//
// setup_s is the median set-up sample taken at the same host speed as
// run_ms_min: each sample is divided by the slowdown of the round that
// follows it, the geometric mean over that round of each run's time over
// its kind's fastest. A slow spell on the host stretches a set-up and the
// round after it alike; the raw median of the samples moved with the
// neighbours' load by as much as the median run time does.
func (b *bench) endToEnd(recs []runRecord, rates []float64, allocBytes uint64, setups []setupSample) map[string]float64 {
	byKind := make([][]float64, len(b.w.round))
	for _, rec := range recs {
		byKind[rec.kind] = append(byKind[rec.kind], rec.ms)
	}
	kindMin := make([]float64, len(byKind))
	kindP50 := make([]float64, len(byKind))
	for k, v := range byKind {
		kindMin[k] = slices.Min(v)
		kindP50[k] = median(v)
	}
	rel := make([]float64, len(recs))
	for i, rec := range recs {
		rel[i] = rec.ms / kindP50[rec.kind]
	}
	p50 := geomean(kindP50)
	quiet := make([]float64, len(setups))
	for i, su := range setups {
		round := recs[su.next : su.next+len(b.w.round)]
		slow := make([]float64, len(round))
		for j, rec := range round {
			slow[j] = rec.ms / kindMin[rec.kind]
		}
		quiet[i] = su.s / geomean(slow)
	}
	return map[string]float64{
		"run_ms_min":       geomean(kindMin),
		"alloc_mb_per_run": float64(allocBytes) / 1e6 / float64(len(recs)),
		"setup_s":          median(quiet),
		"runs_per_s":       median(rates),
		"run_ms_p50":       p50,
		"run_ms_p90":       p50 * quantile(rel, 0.9),
	}
}

func geomean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
