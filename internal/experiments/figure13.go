package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"commguard/internal/apps"
	"commguard/internal/metrics"
	"commguard/internal/sim"
)

// Fig13Row is one benchmark's execution-time overhead at one frame scale.
type Fig13Row struct {
	App        string
	FrameScale int
	// OverheadPct is (T_commguard - T_plain) / T_plain in percent,
	// wall-clock over error-free runs (median of repetitions).
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
			plain, err := medianRuntime(b, sim.Config{Protection: sim.ErrorFree, FrameScale: scale}, reps)
			if err != nil {
				return nil, err
			}
			guarded, err := medianRuntime(b, sim.Config{Protection: sim.CommGuard, FrameScale: scale}, reps)
			if err != nil {
				return nil, err
			}
			over := 100 * (guarded.Seconds() - plain.Seconds()) / plain.Seconds()
			rows = append(rows, Fig13Row{App: b.Name, FrameScale: scale, OverheadPct: over})
			fmt.Fprintf(w, " %8.1f%%", over)
		}
		fmt.Fprintln(w)
	}
	var overall []float64
	for _, r := range rows {
		if r.FrameScale == 1 && r.OverheadPct > 0 {
			overall = append(overall, r.OverheadPct)
		}
	}
	fmt.Fprintf(w, "mean positive overhead at default frames: %.1f%%\n", metrics.GeoMean(overall))
	return rows, nil
}

func medianRuntime(b apps.Builder, cfg sim.Config, reps int) (time.Duration, error) {
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		inst, err := b.New()
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(inst, cfg, nil)
		if err != nil {
			return 0, err
		}
		times = append(times, res.Run.Elapsed)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
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
