package experiments

import (
	"fmt"
	"math"
	"strconv"

	"commguard/internal/sim"
)

// Fig3Row is one protection configuration's outcome for the motivating
// jpeg comparison.
type Fig3Row struct {
	Protection sim.Protection
	// PSNR in dB vs the original image, averaged over seeds.
	MeanPSNR float64
	// Completed reports whether runs produced a full-length output.
	Completed bool
}

// Figure3 reproduces the paper's motivating example (Fig. 3): a 10-thread
// jpeg decode at a per-core MTBE of 1M instructions under the four
// protection configurations. The paper's shape: (a) clean output, (b) and
// (c) collapse to garbage, (d) CommGuard sustains acceptable quality.
func Figure3(o Options) ([]Fig3Row, error) {
	jpeg, err := o.pick("jpeg")
	if err != nil {
		return nil, err
	}
	mtbe := o.Fig3MTBE
	if mtbe <= 0 {
		mtbe = 1e6
	}
	pts, err := sweep{
		fig: "fig3", phase: "Figure 3", apps: jpeg,
		prots:  []sim.Protection{sim.ErrorFree, sim.SoftwareQueue, sim.ReliableQueue, sim.CommGuard},
		mtbes:  []float64{mtbe},
		seeds:  seedList(o.Seeds, 31, 100),
		efOnce: true,
		metrics: []metric{
			// An error-free identical decode scores +Inf: clamp for averaging.
			{"quality", func(r *sim.Result, _ []float64) any { return math.Min(r.Quality, 99) }},
			{"complete", func(r *sim.Result, ref []float64) any { return len(r.Output) == len(ref) }},
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, len(pts))
	for i, p := range pts {
		rows[i] = Fig3Row{Protection: p.prot, MeanPSNR: p.mean("quality"), Completed: true}
		for _, r := range p.runs {
			rows[i].Completed = rows[i].Completed && get[bool](r, "complete")
		}
	}
	layout[Fig3Row]{
		title: fmt.Sprintf("Figure 3: jpeg under four protection configurations (MTBE %s/core)", fmtMTBE(mtbe)),
		head:  fmt.Sprintf("%-16s %12s %10s", "configuration", "PSNR (dB)", "complete"),
		line:  func(r Fig3Row) string { return fmt.Sprintf("%-16s", r.Protection) },
		cell:  func(r Fig3Row) string { return fmt.Sprintf(" %12.1f %10v", r.MeanPSNR, r.Completed) },
	}.print(o.out(), rows)
	return rows, nil
}

var fig3Report = report[Fig3Row]{
	rows: func(a *AllResults) []Fig3Row { return a.Fig3 },
	file: "figure3.csv", cols: []string{"protection", "psnr_db", "completed"},
	csv: func(r Fig3Row) []string {
		return []string{r.Protection.String(), f(r.MeanPSNR), strconv.FormatBool(r.Completed)}
	},
	section: "Figure 3 — protection configurations (jpeg)",
	mdHead:  "| configuration | PSNR (dB) |",
	md:      func(r Fig3Row) string { return fmt.Sprintf("| %s | %.1f |", r.Protection, r.MeanPSNR) },
}
