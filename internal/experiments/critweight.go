package experiments

import (
	"fmt"
	"strings"

	"commguard/internal/apps"
	"commguard/internal/campaign"
	"commguard/internal/crit"
	"commguard/internal/sim"
	"commguard/internal/srcload"
)

// CritRow is one benchmark of the criticality-weighting study.
type CritRow struct {
	App string
	// Fraction is the graph-weighted mean control-critical statement
	// fraction of the benchmark's filters (from internal/crit).
	Fraction float64
	// UniformDB / WeightedDB are mean output quality under the uniform
	// manifestation model vs the criticality-weighted one, at the same
	// MTBE, protection and seeds.
	UniformDB  float64
	WeightedDB float64
}

// CritWeighting compares uniform against criticality-weighted error
// injection (fault.CriticalityWeighted driven by the static analysis in
// internal/crit) over the built-in benchmarks, under the reliable-queue
// platform (Fig. 3c — errors land in filters, not queue pointers, so the
// manifestation split is the whole story). It quantifies how much the
// hard-coded uniform weights under- or over-state damage per benchmark:
// filters whose code is mostly control state draw proportionally more
// desequencing errors under the weighted model and score worse, pure data
// pipes draw fewer and score better.
func CritWeighting(o Options, mtbe float64) ([]CritRow, error) {
	root, err := srcload.FindRoot()
	if err != nil {
		return nil, err
	}
	prog, err := srcload.Open(root)
	if err != nil {
		return nil, err
	}
	pm, err := crit.AnalyzeRepo(prog)
	if err != nil {
		return nil, err
	}
	fracs := pm.Fractions()

	builders := o.builders()
	if o.Quick {
		builders = append(builders, apps.Builder{Name: "doall", New: func() (*apps.Instance, error) {
			return apps.NewDoAll(apps.DoAllConfig{Workers: 3, Tasks: 512, IterationsPerTask: 8})
		}})
	} else {
		builders = apps.AllBuiltin()
	}

	pts, err := sweep{
		fig: "critweight", phase: "crit-weighting", apps: builders,
		variants: []string{"uniform", "weighted"}, prots: []sim.Protection{sim.ReliableQueue},
		mtbes: []float64{mtbe}, seeds: seedList(o.Seeds, 700, 131),
		config: func(j campaign.Job, c *sim.Config) {
			if j.Variant == "weighted" {
				c.CritFractions = fracs
			}
		},
		metrics: []metric{{"quality", func(r *sim.Result, _ []float64) any { return clampDB(r.Quality) }}},
	}.run(o)
	if err != nil {
		return nil, err
	}
	// Points come in (benchmark; uniform, weighted) pairs.
	rows := make([]CritRow, len(builders))
	for i, b := range builders {
		rows[i] = CritRow{App: b.Name, Fraction: graphMeanFraction(b, pm),
			UniformDB: pts[2*i].mean("quality"), WeightedDB: pts[2*i+1].mean("quality")}
	}
	layout[CritRow]{
		title: fmt.Sprintf("Uniform vs criticality-weighted injection at MTBE %s (reliable queue, mean over %d seeds)", fmtMTBE(mtbe), o.Seeds),
		head:  fmt.Sprintf("%-18s %10s %12s %12s", "benchmark", "crit frac", "uniform dB", "weighted dB"),
		line:  func(r CritRow) string { return fmt.Sprintf("%-18s", r.App) },
		cell: func(r CritRow) string {
			return fmt.Sprintf(" %9.1f%% %12.1f %12.1f", 100*r.Fraction, r.UniformDB, r.WeightedDB)
		},
	}.print(o.out(), rows)
	return rows, nil
}

var critReport = report[CritRow]{
	rows: func(a *AllResults) []CritRow { return a.CritWeight },
	file: "critweight.csv", cols: []string{"benchmark", "crit_fraction", "uniform_db", "weighted_db"},
	csv: func(r CritRow) []string {
		return []string{r.App, f(r.Fraction), f(r.UniformDB), f(r.WeightedDB)}
	},
	section: "Criticality weighting — uniform vs criticality-weighted injection (reliable queue)",
	mdHead:  "| benchmark | crit fraction | uniform | weighted |",
	md: func(r CritRow) string {
		return fmt.Sprintf("| %s | %.1f%% | %.1f dB | %.1f dB |", r.App, 100*r.Fraction, r.UniformDB, r.WeightedDB)
	},
}

// graphMeanFraction resolves each node of a freshly built graph against
// the protection map and averages; nodes the analysis has no entry for
// are skipped.
func graphMeanFraction(b apps.Builder, pm *crit.ProtectionMap) float64 {
	inst, err := b.New()
	if err != nil {
		return 0
	}
	sum, n := 0.0, 0
	for _, node := range inst.Graph.Nodes {
		f, ok := pm.FractionFor(node.F.Name())
		if !ok {
			// Builtin WorkBatch methods are analyzed under their "pkg.Type" name.
			f, ok = pm.FractionFor(strings.TrimPrefix(fmt.Sprintf("%T", node.F), "*"))
		}
		if ok {
			sum += f
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
