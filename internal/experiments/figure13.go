package experiments

import (
	"fmt"
	"strconv"
	"time"

	"commguard/internal/apps"
	"commguard/internal/sim"
)

// Fig13Row is one benchmark's execution-time overhead at one frame scale.
type Fig13Row struct {
	App        string
	FrameScale int
	// OverheadPct is (T_commguard - T_plain) / T_plain in percent,
	// wall-clock over error-free runs (fastest of interleaved repetitions).
	OverheadPct float64
}

// Figure13 reproduces the runtime-overhead figure: the cost of CommGuard's
// extra header pushes/pops and frame-boundary serialization, measured as
// wall-clock overhead of error-free CommGuard runs against plain reliable
// queues (the paper measures lfence-instrumented binaries on a real Xeon;
// here the engine's frame-boundary synchronization plays that role — see
// DESIGN.md substitution 4). The paper's shape: mean ~1%, worst ~4%
// (audiobeamformer, complex-fir), shrinking slightly with larger frames.
func Figure13(o Options, reps int) ([]Fig13Row, error) {
	if reps < 1 {
		reps = 3
	}
	w := o.out()
	fmt.Fprintln(w, "Figure 13: CommGuard execution-time overhead (error-free, wall-clock)")
	fmt.Fprintf(w, "%-16s", "benchmark")
	for _, s := range o.FrameScales {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("x%d", s))
	}
	fmt.Fprintln(w)

	var rows []Fig13Row
	for _, b := range o.builders() {
		fmt.Fprintf(w, "%-16s", b.Name)
		for _, scale := range o.FrameScales {
			plain, guarded, err := fastestRuntimes(b, scale, reps)
			if err != nil {
				return nil, err
			}
			over := 100 * (guarded.Seconds() - plain.Seconds()) / plain.Seconds()
			rows = append(rows, Fig13Row{App: b.Name, FrameScale: scale, OverheadPct: over})
			fmt.Fprintf(w, " %8.1f%%", over)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "mean overhead at default frames: %.1f%%\n", fig13MeanOverhead(rows))
	return rows, nil
}

// fig13MeanOverhead is the arithmetic mean overhead over the default-frame
// (x1) rows. Negative overheads — CommGuard measuring faster than the
// plain run, i.e. noise around a near-zero cost — stay in, so the mean is
// not biased upward. It is 0 when no row runs at default frames.
func fig13MeanOverhead(rows []Fig13Row) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if r.FrameScale == 1 {
			sum += r.OverheadPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fig13MinSample is the least run time fastestRuntimes collects per
// configuration. Quick-profile runs take about a millisecond, where a
// single scheduler delay reads as hundreds of percent of overhead.
const fig13MinSample = 50 * time.Millisecond

// fastestRuntimes returns the fastest wall time of the error-free and of
// the CommGuard run of one benchmark at one frame scale. The two alternate
// so background load lands on both alike, and each runs at least reps
// times and until its runs add up to fig13MinSample. The minimum, like the
// repo benchmark's run_ms_min, drops runs slowed by unrelated work.
func fastestRuntimes(b apps.Builder, scale, reps int) (plain, guarded time.Duration, err error) {
	cfgs := [2]sim.Config{
		{Protection: sim.ErrorFree, FrameScale: scale},
		{Protection: sim.CommGuard, FrameScale: scale},
	}
	var best, total [2]time.Duration
	for n := 0; n < reps || total[0] < fig13MinSample || total[1] < fig13MinSample; n++ {
		for i, cfg := range cfgs {
			inst, err := b.New()
			if err != nil {
				return 0, 0, err
			}
			res, err := sim.Run(inst, cfg, nil)
			if err != nil {
				return 0, 0, err
			}
			d := res.Run.Elapsed
			if n == 0 || d < best[i] {
				best[i] = d
			}
			total[i] += d
		}
	}
	return best[0], best[1], nil
}

var fig13Report = report[Fig13Row]{
	rows: func(a *AllResults) []Fig13Row { return a.Fig13 },
	file: "figure13.csv", cols: []string{"benchmark", "frame_scale", "overhead_pct"},
	csv: func(r Fig13Row) []string {
		return []string{r.App, strconv.Itoa(r.FrameScale), f(r.OverheadPct)}
	},
	section: "Figure 13 — execution-time overhead",
	mdHead:  "| benchmark | scale | overhead |",
	md: func(r Fig13Row) string {
		return fmt.Sprintf("| %s | x%d | %.1f%% |", r.App, r.FrameScale, r.OverheadPct)
	},
}
