// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each FigureN function sweeps the same parameters the
// paper reports (MTBE per core, frame-size scaling, seeds), prints the
// figure's rows/series as a text table, and returns the structured data.
// The sweep figures are declarations run by one engine (sweep.go); the
// figure table (figures.go) lists every figure for cmd/experiments,
// RunAll and the CSV/Markdown reports. EXPERIMENTS.md records how the
// regenerated shapes compare with the published ones.
package experiments

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"commguard/internal/apps"
	"commguard/internal/campaign"
	"commguard/internal/obs"
	"commguard/internal/sim"
)

// Options controls sweep width. The zero value is not valid; use
// DefaultOptions or QuickOptions.
type Options struct {
	// Seeds per (MTBE, scale) point; the paper uses 5.
	Seeds int
	// MTBEs is the per-core mean-time-between-errors axis, in modeled
	// instructions (the paper sweeps 64k..8192k).
	MTBEs []float64
	// FrameScales is the frame-size axis (paper: 1, 2, 4, 8).
	FrameScales []int
	// Quick shrinks workloads for fast test/bench runs.
	Quick bool
	// Fig3MTBE is the error rate of the motivating comparison; the paper
	// uses 1M instructions. Quick profiles lower it so the miniature
	// workloads still see errors.
	Fig3MTBE float64
	// Parallel runs sweep points concurrently (each point is itself a
	// multi-goroutine simulation). Values < 1 default to
	// runtime.GOMAXPROCS(0).
	Parallel int
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Verbose prints per-figure start/finish lines (elapsed time, job
	// counts) to stderr so long sweeps are not silent.
	Verbose bool
	// TracePath, when non-empty, makes Figure7 record an obs event trace of
	// its representative run and write <TracePath>.trace.json/.jsonl/
	// .snapshot.json.
	TracePath string
	// Progress, when non-nil, counts live phase/job progress (served as
	// OpenMetrics by -listen). Nil disables counting.
	Progress *obs.Progress
	// Sequential runs every simulation in the bit-reproducible
	// single-goroutine engine mode. Required for resume-equality: the
	// concurrent engine's realignment activity depends on goroutine
	// interleaving, so only sequential campaigns produce identical
	// aggregates across a kill/-resume boundary.
	Sequential bool
	// FlightDir, when non-empty, arms an anomaly-triggered flight recorder
	// on every detection-latency sweep job: trace rings run continuously
	// and are dumped into this directory (one artifact trio per fired
	// job) on a PPU watchdog refusal or a campaign-watchdog hang.
	FlightDir string
	// Campaign, when non-nil, routes every keyed sweep job through the
	// resilient campaign runner: completions are journaled (crash-safe
	// resume), each job runs under the watchdog's timeout/retry policy,
	// and a graceful interrupt drains in-flight jobs. Nil falls back to
	// the plain worker pool.
	Campaign *campaign.Runner

	// refs is the shared reference/baseline cache. RunAll installs one
	// before the first figure so error-free baselines are computed once
	// across the whole regeneration; a standalone FigureN call sees nil
	// and creates its own.
	refs *referenceCache
	// jobsDone counts completed sweep jobs across figures (shared by
	// pointer so RunAll's verbose lines can report per-figure deltas).
	jobsDone *atomic.Int64
}

// DefaultOptions mirrors the paper's sweep. Parallel is left at the
// auto default (GOMAXPROCS).
func DefaultOptions() Options {
	return Options{
		Seeds:       5,
		MTBEs:       []float64{64e3, 128e3, 256e3, 512e3, 1024e3, 2048e3, 4096e3, 8192e3},
		FrameScales: []int{1, 2, 4, 8},
		Fig3MTBE:    1e6,
	}
}

// QuickOptions is a reduced sweep for tests and CI.
func QuickOptions() Options {
	return Options{
		Seeds:       2,
		MTBEs:       []float64{64e3, 512e3, 4096e3},
		FrameScales: []int{1, 4},
		Quick:       true,
		Fig3MTBE:    96e3,
	}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o Options) parallel() int {
	if o.Parallel < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// flightOptions builds a sweep job's flight-recorder policy: nil unless
// FlightDir is set, else a watchdog-armed recorder whose artifact base
// encodes the job identity (so concurrent jobs never collide).
func (o Options) flightOptions(fig, app, prot string, mtbe float64, seed int64) *obs.FlightOptions {
	if o.FlightDir == "" {
		return nil
	}
	return &obs.FlightOptions{
		Path:     filepath.Join(o.FlightDir, fmt.Sprintf("%s-%s-%s-m%s-s%d", fig, app, prot, fmtMTBE(mtbe), seed)),
		Watchdog: true,
	}
}

// refCache returns the shared reference cache, or a fresh one when the
// caller did not install one (standalone FigureN invocations).
func (o Options) refCache() *referenceCache {
	if o.refs != nil {
		return o.refs
	}
	return newReferenceCache()
}

// builders returns the benchmark set sized for the option profile.
func (o Options) builders() []apps.Builder {
	if !o.Quick {
		return apps.All()
	}
	return []apps.Builder{
		{Name: "audiobeamformer", New: func() (*apps.Instance, error) {
			return apps.NewBeamformer(apps.BeamformerConfig{Channels: 4, Samples: 1024, Delay: 3})
		}},
		{Name: "channelvocoder", New: func() (*apps.Instance, error) {
			return apps.NewVocoder(apps.VocoderConfig{Bands: 3, Samples: 1024})
		}},
		{Name: "complex-fir", New: func() (*apps.Instance, error) {
			return apps.NewComplexFIR(apps.ComplexFIRConfig{Samples: 1024, Stages: 4, Taps: 8})
		}},
		{Name: "fft", New: func() (*apps.Instance, error) {
			return apps.NewFFT(apps.FFTConfig{Points: 64, Blocks: 16})
		}},
		{Name: "jpeg", New: func() (*apps.Instance, error) {
			return apps.NewJPEG(apps.JPEGConfig{W: 128, H: 32, Quality: 75})
		}},
		{Name: "mp3", New: func() (*apps.Instance, error) {
			return apps.NewMP3(apps.MP3Config{Frames: 12})
		}},
	}
}

func (o Options) builder(name string) (apps.Builder, error) {
	for _, b := range o.builders() {
		if b.Name == name {
			return b, nil
		}
	}
	return apps.Builder{}, fmt.Errorf("experiments: unknown benchmark %q", name)
}

// pick returns the named benchmarks of the option profile, in order.
func (o Options) pick(names ...string) ([]apps.Builder, error) {
	bs := make([]apps.Builder, len(names))
	for i, name := range names {
		b, err := o.builder(name)
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

// referenceCache computes each benchmark's scoring reference and its
// error-free baseline quality once. RunAll shares a single cache across
// every figure so the error-free simulations run once per app instead of
// once per figure.
type referenceCache struct {
	mu           sync.Mutex
	refs         map[string][]float64
	efq          map[string]float64
	baselineRuns int
	// onBaselineRun, when set, is invoked each time an actual error-free
	// simulation is launched for an app. Tests use it to assert the cache
	// collapses redundant baseline work.
	onBaselineRun func(app string)
}

func newReferenceCache() *referenceCache {
	return &referenceCache{
		refs: map[string][]float64{},
		efq:  map[string]float64{},
	}
}

func (rc *referenceCache) noteBaselineRun(app string) {
	rc.mu.Lock()
	rc.baselineRuns++
	hook := rc.onBaselineRun
	rc.mu.Unlock()
	if hook != nil {
		hook(app)
	}
}

// cached returns m[name], computing and storing it on a miss. Two
// concurrent misses may both compute; the results are identical.
func cached[T any](rc *referenceCache, m map[string]T, name string, compute func() (T, error)) (T, error) {
	rc.mu.Lock()
	v, ok := m[name]
	rc.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err == nil {
		rc.mu.Lock()
		m[name] = v
		rc.mu.Unlock()
	}
	return v, err
}

// get returns the app's scoring reference: its media ground truth, or the
// output of an error-free run for self-referenced benchmarks.
func (rc *referenceCache) get(b apps.Builder) ([]float64, error) {
	return cached(rc, rc.refs, b.Name, func() ([]float64, error) {
		inst, err := b.New()
		if err != nil {
			return nil, err
		}
		if inst.Reference != nil {
			return inst.Reference, nil
		}
		rc.noteBaselineRun(b.Name)
		res, err := sim.Run(inst, sim.Config{Protection: sim.ErrorFree}, nil)
		if err != nil {
			return nil, err
		}
		return res.Output, nil
	})
}

// errorFreeQuality scores an error-free run against the reference: the
// codec baseline for jpeg/mp3, +Inf for self-referenced benchmarks. The
// score is cached per app.
func (rc *referenceCache) errorFreeQuality(b apps.Builder) (float64, error) {
	return cached(rc, rc.efq, b.Name, func() (float64, error) {
		ref, err := rc.get(b)
		if err != nil {
			return 0, err
		}
		inst, err := b.New()
		if err != nil {
			return 0, err
		}
		rc.noteBaselineRun(b.Name)
		res, err := sim.Run(inst, sim.Config{Protection: sim.ErrorFree}, ref)
		if err != nil {
			return 0, err
		}
		return res.Quality, nil
	})
}

func fmtMTBE(m float64) string { return fmt.Sprintf("%gk", m/1000) }

func protNames(ps []sim.Protection) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return names
}

func fmtMTBEs(ms []float64) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmtMTBE(m)
	}
	return out
}

func fmtDB(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.1f", v)
}

// clampDB bounds quality values for averaging (identical outputs are
// plotted at the 160 dB ceiling, garbage at the -40 dB floor).
func clampDB(q float64) float64 {
	if math.IsInf(q, 1) || q > 160 {
		return 160
	}
	if math.IsNaN(q) || q < -40 {
		return -40
	}
	return q
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
