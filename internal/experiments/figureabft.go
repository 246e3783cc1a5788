package experiments

import (
	"fmt"

	"commguard/internal/metrics"
	"commguard/internal/sim"
)

// FigABFTPoint is one (benchmark, protection, MTBE) cell of the ABFT
// comparison figure: output quality across seeds plus the scheme's
// protection-suboperation overhead relative to committed instructions.
type FigABFTPoint struct {
	App        string
	Protection sim.Protection
	MTBE       float64
	Quality    metrics.Summary
	// Overhead is the mean protection suboperations per committed
	// instruction: pointer-ECC traffic for every scheme, plus CommGuard's
	// FSM/counter + header ECC + header-bit checks, or plus the ABFT
	// scheme's checksum accumulates and recompute repairs.
	Overhead float64
	// Corrections is the mean ABFT recompute-repairs per run (zero for
	// the other schemes).
	Corrections float64
}

// abftProtections is the figure's scheme axis: reliable queues with no
// compute protection (the unprotected-compute baseline), CommGuard's
// communication guards, and the checksummed ABFT kernels.
var abftProtections = []sim.Protection{sim.ReliableQueue, sim.CommGuard, sim.ABFT}

// FigureABFT compares the three protection schemes on the media
// benchmarks across the MTBE sweep: quality (dB vs the codec reference)
// and overhead (suboperations per committed instruction). The expected
// shape: ABFT repairs datapath flips inside checksummed kernels for a
// cost that scales with kernel output rate (Table 3's one fused
// accumulate plus one verify accumulate per item), while CommGuard
// additionally recovers the control-flow and alignment errors that
// dominate at low MTBE.
func FigureABFT(o Options) ([]FigABFTPoint, error) {
	media, err := o.pick("jpeg", "mp3")
	if err != nil {
		return nil, err
	}
	pts, err := sweep{
		fig: "figabft", phase: "Figure ABFT", apps: media, prots: abftProtections,
		mtbes: o.MTBEs, seeds: seedList(o.Seeds, 7, 1000),
		metrics: []metric{
			{"quality", runQuality},
			{"overhead", func(r *sim.Result, _ []float64) any { ovh, _ := abftOverhead(r); return ovh }},
			{"corrections", func(r *sim.Result, _ []float64) any { _, corr := abftOverhead(r); return corr }},
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	rows := make([]FigABFTPoint, len(pts))
	for i, p := range pts {
		rows[i] = FigABFTPoint{App: p.App, Protection: p.prot, MTBE: p.MTBE,
			Quality: p.quality(), Overhead: p.mean("overhead"), Corrections: p.mean("corrections")}
	}
	layout[FigABFTPoint]{
		title: "Figure ABFT: unprotected vs CommGuard vs ABFT-checksummed kernels (quality and overhead)",
		head:  fmt.Sprintf("  %-8s", "MTBE") + heads(" %14s %8s", protNames(abftProtections), "ovh"),
		block: func(p FigABFTPoint) string { return p.App + ":" },
		line:  func(p FigABFTPoint) string { return fmt.Sprintf("  %-8s", fmtMTBE(p.MTBE)) },
		cell: func(p FigABFTPoint) string {
			return fmt.Sprintf(" %11s dB %7.2f%%", fmtDB(p.Quality.Mean), 100*p.Overhead)
		},
	}.print(o.out(), rows)
	return rows, nil
}

var abftReport = report[FigABFTPoint]{
	rows: func(a *AllResults) []FigABFTPoint { return a.FigABFT },
	file: "figureabft.csv",
	cols: []string{"benchmark", "protection", "mtbe", "quality_db_mean", "quality_db_stddev", "overhead_ratio", "corrections_mean"},
	csv: func(r FigABFTPoint) []string {
		return []string{r.App, r.Protection.String(), f(r.MTBE),
			f(r.Quality.Mean), f(r.Quality.StdDev), f(r.Overhead), f(r.Corrections)}
	},
	section: "Figure ABFT — unprotected vs CommGuard vs ABFT kernels",
	mdHead:  "| benchmark | protection | MTBE | quality | overhead | corrections |",
	md: func(r FigABFTPoint) string {
		return fmt.Sprintf("| %s | %s | %s | %s dB | %.2f%% | %.1f |",
			r.App, r.Protection, fmtMTBE(r.MTBE), fmtDB(r.Quality.Mean), 100*r.Overhead, r.Corrections)
	},
}

// abftOverhead computes a run's protection suboperations per committed
// instruction and the ABFT correction count. Every scheme pays the
// queue-manager pointer-ECC traffic; CommGuard adds its Table-2
// suboperation categories; the ABFT scheme adds the fused checksum
// accumulates and any recompute repairs (Table-3-style cost model).
func abftOverhead(res *sim.Result) (overhead, corrections float64) {
	instr := res.Run.TotalInstructions()
	qt := res.Run.QueueTotals()
	num := qt.PointerECCOps
	if res.Guard != nil {
		num += res.Guard.Ops.FSMCounter + res.Guard.Ops.ECC + res.Guard.Ops.HeaderBit
	}
	for _, c := range res.Run.Cores {
		num += c.ABFT.Ops()
		corrections += float64(c.ABFT.Corrections)
	}
	return ratio(num, instr), corrections
}
