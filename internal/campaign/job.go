// Package campaign turns the experiment figures' sweep lattices into
// resilient, resumable campaigns. It owns three concerns the figure code
// should not: deterministic job identity (stable keys derived from the
// config hash, so two processes agree on what "the same job" means), a
// crash-safe journal of completed jobs (append-only JSONL; a killed
// campaign resumes by replaying journaled results and running only the
// remainder), and a per-job watchdog (timeout -> cancel -> capped
// exponential backoff retry -> classify as hung) so one wedged simulation
// cannot wedge a multi-hour sweep.
package campaign

import (
	"fmt"

	"commguard/internal/obs"
)

// Job identifies one point of a sweep lattice: which figure, benchmark,
// protection level, error rate, seed and frame scale. It is the unit of
// journaling and retry. All fields serialize (the key is a hash of the
// JSON rendering), so they must stay plain data.
type Job struct {
	// Figure names the experiment the job belongs to ("fig3", "fig9"...).
	// It is part of the key because different figures sweep overlapping
	// configurations (Fig. 8 and Fig. 10 both run jpeg at scale 1) whose
	// results are aggregated differently.
	Figure     string  `json:"figure"`
	App        string  `json:"app"`
	Protection string  `json:"protection"`
	MTBE       float64 `json:"mtbe,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	FrameScale int     `json:"frame_scale,omitempty"`
	// Coder is the ECC backend axis ("" = Hamming; omitted when empty so
	// pre-existing journal keys are unchanged).
	Coder string `json:"coder,omitempty"`
	// Variant is a figure-specific condition axis (the sensitivity study's
	// fault class, the criticality study's injection model); omitted when
	// empty, like Coder.
	Variant string `json:"variant,omitempty"`
}

// Key returns the job's stable identity: a human-scannable prefix plus the
// obs.ConfigHash of the full job. The hash covers every field, so any two
// jobs that differ in any axis get distinct keys, while the same job
// expanded by a different process (or a resumed run of the same binary)
// maps to the same key. Deliberately independent of toolchain/commit
// provenance: a journal must survive a rebuild.
func (j Job) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s", j.Figure, j.App, j.Protection, obs.ConfigHash(j))
}

// Manifest renders the job as the telemetry manifest stamp used across the
// repo's artifacts (obs.Manifest), with toolchain provenance filled in.
func (j Job) Manifest() obs.Manifest {
	m := obs.NewManifest()
	m.App = j.App
	m.Protection = j.Protection
	m.Seed = j.Seed
	m.MTBE = uint64(j.MTBE)
	m.FrameScale = j.FrameScale
	m.Coder = j.Coder
	m.ConfigHash = obs.ConfigHash(j)
	return m
}

// Axes is a sweep lattice: the cross product of its non-empty axes, in
// deterministic nesting order (app, variant, protection, coder, frame
// scale, MTBE, seed — slowest to fastest), so one lattice point's seeds
// are adjacent. An empty axis contributes the zero value once, so figures
// only populate the axes they sweep.
type Axes struct {
	Figure      string
	Apps        []string
	Variants    []string
	Protections []string
	Coders      []string
	FrameScales []int
	MTBEs       []float64
	Seeds       []int64
}

// Expand enumerates the lattice. The order is deterministic and identical
// across processes: resuming a campaign expands the same job list and
// skips the journaled prefix (or any journaled subset — order only
// matters for progress display, not correctness).
func (a Axes) Expand() []Job {
	jobs := []Job{{Figure: a.Figure}}
	cross := func(n int, set func(j *Job, i int)) {
		if n == 0 {
			return
		}
		next := make([]Job, 0, len(jobs)*n)
		for _, j := range jobs {
			for i := 0; i < n; i++ {
				set(&j, i)
				next = append(next, j)
			}
		}
		jobs = next
	}
	cross(len(a.Apps), func(j *Job, i int) { j.App = a.Apps[i] })
	cross(len(a.Variants), func(j *Job, i int) { j.Variant = a.Variants[i] })
	cross(len(a.Protections), func(j *Job, i int) { j.Protection = a.Protections[i] })
	cross(len(a.Coders), func(j *Job, i int) { j.Coder = a.Coders[i] })
	cross(len(a.FrameScales), func(j *Job, i int) { j.FrameScale = a.FrameScales[i] })
	cross(len(a.MTBEs), func(j *Job, i int) { j.MTBE = a.MTBEs[i] })
	cross(len(a.Seeds), func(j *Job, i int) { j.Seed = a.Seeds[i] })
	return jobs
}
