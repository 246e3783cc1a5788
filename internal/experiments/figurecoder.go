package experiments

import (
	"fmt"

	"commguard/internal/apps"
	"commguard/internal/metrics"
	"commguard/internal/sim"
)

// FigCoderPoint is one (benchmark, coder, MTBE) cell of the ECC-backend
// comparison: output quality across seeds plus the word-ECC suboperation
// overhead relative to committed instructions.
type FigCoderPoint struct {
	App     string
	Coder   string
	MTBE    float64
	Quality metrics.Summary
	// ECCOverhead is the mean word-sized-ECC suboperations per committed
	// instruction: the Queue Manager's pointer-ECC traffic plus the
	// HI/AM header encode/check ops, both priced by the backend's
	// CostModel. This is the axis the coder sweep trades against
	// correction strength.
	ECCOverhead float64
}

// coderSpecs is the figure's backend axis: the paper's (39,32) Hamming
// SEC-DED baseline and two regular bit-flipping LDPC geometries — a
// 16-check (48,32) code and a cheaper 8-check (40,32) code.
var coderSpecs = []string{"hamming", "ldpc-48-3-9", "ldpc-40-3-15"}

// coderBuilders is the benchmark set for the coder sweep: the six
// streaming benchmarks plus the do-all extension, so every builtin
// exercises each backend.
func coderBuilders(o Options) []apps.Builder {
	doall := apps.Builder{Name: "doall", New: func() (*apps.Instance, error) {
		return apps.NewDoAll(apps.DefaultDoAllConfig())
	}}
	if o.Quick {
		doall.New = func() (*apps.Instance, error) {
			return apps.NewDoAll(apps.DoAllConfig{Workers: 4, Tasks: 512, IterationsPerTask: 8})
		}
	}
	return append(o.builders(), doall)
}

// FigureCoder sweeps the word-ECC backend axis under CommGuard across
// every builtin benchmark and the MTBE axis: all backends correct the
// single-bit flips that dominate pointer/header corruption, so quality
// curves should coincide within seed noise, while the ECC-op overhead
// scales with each backend's parity-check count (Table 3 prices times
// the CostModel scale factor).
func FigureCoder(o Options) ([]FigCoderPoint, error) {
	pts, err := sweep{
		fig: "figcoder", phase: "Figure Coder", apps: coderBuilders(o), prots: []sim.Protection{sim.CommGuard},
		coders: coderSpecs, mtbes: o.MTBEs, seeds: seedList(o.Seeds, 7, 1000),
		metrics: []metric{
			{"quality", runQuality},
			{"overhead", func(r *sim.Result, _ []float64) any { return coderOverhead(r) }},
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	rows := make([]FigCoderPoint, len(pts))
	for i, p := range pts {
		rows[i] = FigCoderPoint{App: p.App, Coder: p.Coder, MTBE: p.MTBE,
			Quality: p.quality(), ECCOverhead: p.mean("overhead")}
	}
	layout[FigCoderPoint]{
		title: "Figure Coder: word-ECC backend comparison under CommGuard (quality and ECC-op overhead)",
		head:  fmt.Sprintf("  %-8s", "MTBE") + heads(" %15s %8s", coderSpecs, "ecc-ovh"),
		block: func(p FigCoderPoint) string { return p.App + ":" },
		line:  func(p FigCoderPoint) string { return fmt.Sprintf("  %-8s", fmtMTBE(p.MTBE)) },
		cell: func(p FigCoderPoint) string {
			return fmt.Sprintf(" %12s dB %7.3f%%", fmtDB(p.Quality.Mean), 100*p.ECCOverhead)
		},
	}.print(o.out(), rows)
	return rows, nil
}

var coderReport = report[FigCoderPoint]{
	rows: func(a *AllResults) []FigCoderPoint { return a.FigCoder },
	file: "figurecoder.csv",
	cols: []string{"benchmark", "coder", "mtbe", "quality_db_mean", "quality_db_stddev", "ecc_overhead_ratio"},
	csv: func(r FigCoderPoint) []string {
		return []string{r.App, r.Coder, f(r.MTBE), f(r.Quality.Mean), f(r.Quality.StdDev), f(r.ECCOverhead)}
	},
	section: "Figure Coder — word-ECC backend comparison under CommGuard",
	mdHead:  "| benchmark | coder | MTBE | quality | ECC overhead |",
	md: func(r FigCoderPoint) string {
		return fmt.Sprintf("| %s | %s | %s | %s dB | %.3f%% |",
			r.App, r.Coder, fmtMTBE(r.MTBE), fmtDB(r.Quality.Mean), 100*r.ECCOverhead)
	},
}

// coderOverhead computes a run's word-sized-ECC suboperations per
// committed instruction: the Queue Manager's pointer-ECC traffic plus
// the guard modules' header encode/check ops, both already priced by
// the backend's CostModel at the recording sites.
func coderOverhead(res *sim.Result) float64 {
	num := res.Run.QueueTotals().PointerECCOps
	if res.Guard != nil {
		num += res.Guard.Ops.ECC
	}
	return ratio(num, res.Run.TotalInstructions())
}
