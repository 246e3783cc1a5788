package sim

import (
	"math"
	"os"

	"commguard/internal/obs"
)

// Manifest builds the provenance record of this run for telemetry
// artifacts: the run knobs plus toolchain facts and a hash of the full
// configuration.
func (r *Result) Manifest(cfg Config) obs.Manifest {
	m := obs.NewManifest()
	m.App = r.App
	m.Protection = r.Protection.String()
	m.Seed = r.Seed
	if r.MTBE > 0 {
		m.MTBE = uint64(r.MTBE)
	}
	m.FrameScale = r.FrameScale
	m.Coder = cfg.Coder
	// Trace alone runs the same tracer as the TraceEvents = -1 that
	// traced runs spelled out before Trace enabled it; hash it alike so
	// their manifests keep the same ConfigHash.
	if cfg.Trace && cfg.TraceEvents == 0 {
		cfg.TraceEvents = -1
	}
	m.ConfigHash = obs.ConfigHash(cfg)
	return m
}

// Snapshot assembles the unified telemetry document of this run: every
// subsystem's Stats struct registered as one section, under the run's
// manifest. The document satisfies diag.ValidateSnapshot.
func (r *Result) Snapshot(cfg Config) *obs.Snapshot {
	s := obs.NewSnapshot(r.Manifest(cfg))
	quality := map[string]any{"metric": r.Metric}
	if !math.IsNaN(r.Quality) {
		quality["db"] = r.Quality
	}
	quality["output_len"] = len(r.Output)
	s.Add("quality", quality)
	if r.Run != nil {
		s.Add("run", map[string]any{
			"iterations":         r.Run.Iterations,
			"elapsed_ns":         r.Run.Elapsed.Nanoseconds(),
			"total_instructions": r.Run.TotalInstructions(),
		})
		s.Add("cores", r.Run.Cores)
		s.Add("queues", r.Run.Queues)
		s.Add("queue_totals", r.Run.QueueTotals())
		var faults map[string]uint64
		for _, c := range r.Run.Cores {
			if faults == nil {
				faults = c.Errors.ByName()
				continue
			}
			for k, v := range c.Errors.ByName() {
				faults[k] += v
			}
		}
		if faults != nil {
			s.Add("faults", faults)
		}
	}
	if r.Guard != nil {
		s.Add("guard", r.Guard)
	}
	if len(r.Health) > 0 {
		s.Add("latency", obs.HealthSection{Histograms: r.Health})
	}
	if r.Flight != nil {
		s.Add("flight", r.Flight)
	}
	if r.Trace != nil {
		s.Add("trace", map[string]any{
			"events":  len(r.Trace.Events),
			"dropped": r.Trace.Dropped,
			"cores":   len(r.Trace.Cores),
			"queues":  len(r.Trace.Queues),
		})
	}
	return s
}

// WriteArtifacts writes the run's artifact set next to base: the trace
// pair base.trace.json and base.jsonl (when the run was traced) and the
// snapshot base.snapshot.json. It returns the paths written, snapshot
// last.
func (r *Result) WriteArtifacts(base string, cfg Config) ([]string, error) {
	var paths []string
	if r.Trace != nil {
		var err error
		if paths, err = r.Trace.WriteFiles(base); err != nil {
			return nil, err
		}
	}
	snapPath := base + ".snapshot.json"
	f, err := os.Create(snapPath)
	if err != nil {
		return nil, err
	}
	if err := r.Snapshot(cfg).WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return append(paths, snapPath), nil
}
