package experiments

import (
	"encoding/json"
	"math"

	"commguard/internal/apps"
	"commguard/internal/campaign"
	"commguard/internal/metrics"
	"commguard/internal/sim"
)

// A sweep declares one figure's experiment as data: the lattice it
// expands (apps × variants × protections × coders × frame scales × MTBEs
// × seeds, through campaign.Axes), how a lattice job becomes a
// sim.Config, and the named metrics each run records. run is the one
// engine behind every sweep figure: it loads references, schedules the
// jobs (plain pool or resilient campaign), and groups the runs by point.
type sweep struct {
	fig   string // journal figure label: part of every job key
	phase string // progress phase name
	apps  []apps.Builder
	prots []sim.Protection

	coders, variants []string
	scales           []int
	mtbes            []float64
	seeds            []int64

	// efOnce runs the error-free protection at the first seed only: it is
	// deterministic, so further seeds would repeat the same run (Fig. 3).
	efOnce bool
	// config adjusts a job's simulation beyond its axis fields.
	config  func(j campaign.Job, c *sim.Config)
	metrics []metric
}

// A metric is one named per-run measurement. The names are the keys of
// the run's journaled payload; float64 values journal as campaign.Float,
// other values (bools, strings, histogram buckets) as plain JSON.
type metric struct {
	name string
	get  func(r *sim.Result, ref []float64) any
}

// record is one run's payload as journaled, decoded lazily per metric.
type record map[string]json.RawMessage

// get decodes one metric of a record (the zero value when absent).
func get[T any](r record, name string) (v T) {
	json.Unmarshal(r[name], &v)
	return v
}

// A point is one lattice point (its Job with Seed zeroed) and the runs of
// its seeds, in seed order.
type point struct {
	campaign.Job
	prot sim.Protection
	ef   float64 // the app's error-free quality
	runs []record
}

// stat summarizes a float metric across the point's seeds.
func (p point) stat(name string, infCap float64) metrics.Summary {
	xs := make([]float64, len(p.runs))
	for i, r := range p.runs {
		xs[i] = float64(get[campaign.Float](r, name))
	}
	return metrics.Summarize(xs, infCap)
}

func (p point) mean(name string) float64 { return p.stat(name, math.Inf(1)).Mean }

// quality summarizes the "quality" metric capped at the error-free
// baseline; +Inf baselines (self-referenced apps) cap at the 160 dB plot
// ceiling.
func (p point) quality() metrics.Summary {
	if math.IsInf(p.ef, 1) {
		return p.stat("quality", 160)
	}
	return p.stat("quality", p.ef)
}

// run executes the sweep and returns its points in lattice order.
func (s sweep) run(o Options) ([]point, error) {
	rc := o.refCache()
	axes := campaign.Axes{Figure: s.fig, Variants: s.variants, Protections: protNames(s.prots),
		Coders: s.coders, FrameScales: s.scales, MTBEs: s.mtbes, Seeds: s.seeds}
	prots := map[string]sim.Protection{}
	for _, p := range s.prots {
		prots[p.String()] = p
	}
	type appRef struct {
		b   apps.Builder
		ref []float64
		ef  float64
	}
	refs := map[string]appRef{}
	for _, b := range s.apps {
		a := appRef{b: b}
		var err error
		if a.ref, err = rc.get(b); err != nil {
			return nil, err
		}
		if a.ef, err = rc.errorFreeQuality(b); err != nil {
			return nil, err
		}
		refs[b.Name] = a
		axes.Apps = append(axes.Apps, b.Name)
	}

	var jobs []campaign.Job
	for _, j := range axes.Expand() {
		if s.efOnce && prots[j.Protection] == sim.ErrorFree && len(s.seeds) > 0 && j.Seed != s.seeds[0] {
			continue
		}
		jobs = append(jobs, j)
	}
	recs := make([]record, len(jobs))
	tasks := make([]campaign.Task, len(jobs))
	for i, j := range jobs {
		i, j, a := i, j, refs[j.App]
		// decode records a run's payload; every completed job, fresh or
		// replayed from the journal, passes through it exactly once.
		decode := func(raw json.RawMessage) error {
			if err := json.Unmarshal(raw, &recs[i]); err != nil {
				return err
			}
			if o.jobsDone != nil {
				o.jobsDone.Add(1)
			}
			return nil
		}
		tasks[i] = campaign.Task{Job: j, Replay: decode, Run: func(cancel <-chan struct{}) (any, error) {
			inst, err := a.b.New()
			if err != nil {
				return nil, err
			}
			cfg := sim.Config{
				Protection: prots[j.Protection], MTBE: j.MTBE, Seed: j.Seed,
				FrameScale: j.FrameScale, Coder: j.Coder,
				Sequential: o.Sequential, Cancel: cancel,
			}
			if s.config != nil {
				s.config(j, &cfg)
			}
			res, err := sim.Run(inst, cfg, a.ref)
			if err != nil {
				return nil, err
			}
			payload := make(map[string]any, len(s.metrics))
			for _, m := range s.metrics {
				v := m.get(res, a.ref)
				if f, ok := v.(float64); ok {
					v = campaign.Float(f)
				}
				payload[m.name] = v
			}
			// A fresh run decodes the payload it journals, exactly as a
			// resumed campaign replays it, so both aggregate identically.
			raw, err := json.Marshal(payload)
			if err != nil {
				return nil, err
			}
			return json.RawMessage(raw), decode(raw)
		}}
	}
	if err := o.runKeyedJobs(s.phase, tasks); err != nil {
		return nil, err
	}

	// Seeds are the innermost axis, so a point's runs are adjacent.
	var pts []point
	for i, j := range jobs {
		j.Seed = 0
		if len(pts) == 0 || pts[len(pts)-1].Job != j {
			pts = append(pts, point{Job: j, prot: prots[j.Protection], ef: refs[j.App].ef})
		}
		last := &pts[len(pts)-1]
		last.runs = append(last.runs, recs[i])
	}
	return pts, nil
}

// runKeyedJobs schedules a named phase of keyed jobs on the campaign
// runner. Without a configured Campaign it runs them on a plain runner
// (no journal, no watchdog: a bounded worker pool); with one, the
// campaign's journal supplies resume skips, its watchdog cancels wedged
// jobs, and its interrupt drains the phase early.
func (o Options) runKeyedJobs(phase string, tasks []campaign.Task) error {
	o.Progress.StartPhase(phase, len(tasks))
	r := o.Campaign
	if r == nil {
		r = &campaign.Runner{Parallel: o.parallel(), Progress: o.Progress}
	}
	return r.Run(tasks)
}

// seedList is a figure's seed axis: n seeds base, base+stride, ...
func seedList(n int, base, stride int64) []int64 {
	seeds := make([]int64, n)
	for s := range seeds {
		seeds[s] = base + stride*int64(s)
	}
	return seeds
}

// runQuality is the metric extractor for a run's quality score.
func runQuality(r *sim.Result, _ []float64) any { return r.Quality }
