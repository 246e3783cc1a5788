package experiments

import (
	"fmt"

	"commguard/internal/campaign"
	"commguard/internal/fault"
	"commguard/internal/sim"
)

// SensitivityRow is one (error class, protection) cell of the class
// sensitivity study.
type SensitivityRow struct {
	Class     fault.Class
	GuardedDB float64
	PlainDB   float64
	// LossRatio is CommGuard's realignment loss under this class alone.
	LossRatio float64
}

// ClassSensitivity is an ablation beyond the paper's figures: it isolates
// each error-manifestation class of §3 (data flips, item-count trips,
// frame slips, addressing slips) and measures output quality with and
// without CommGuard at a fixed error rate. It makes the paper's core
// argument quantitative per class: data-style errors degrade both
// configurations equally (CommGuard adds nothing, costs nothing), while
// control-flow classes are catastrophic unguarded and bounded with
// CommGuard.
func ClassSensitivity(o Options, benchmark string, mtbe float64) ([]SensitivityRow, error) {
	b, err := o.pick(benchmark)
	if err != nil {
		return nil, err
	}
	classes := []fault.Class{fault.DataBitflip, fault.AddrSlip, fault.ControlTrip, fault.ControlFrame}
	byName := map[string]fault.Class{}
	var names []string
	for _, c := range classes {
		byName[c.String()] = c
		names = append(names, c.String())
	}
	pts, err := sweep{
		fig: "sensitivity", phase: "class-sensitivity", apps: b, variants: names,
		prots: []sim.Protection{sim.CommGuard, sim.ReliableQueue},
		mtbes: []float64{mtbe}, seeds: seedList(o.Seeds, 400, 97),
		config: func(j campaign.Job, c *sim.Config) {
			var model fault.Model
			model.Weights[byName[j.Variant]] = 1
			c.Model = &model
		},
		metrics: []metric{
			{"quality", func(r *sim.Result, _ []float64) any { return clampDB(r.Quality) }},
			{"loss", func(r *sim.Result, _ []float64) any { return r.DataLossRatio() }},
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	// Points come in (class; commguard, reliable-queue) pairs.
	rows := make([]SensitivityRow, len(classes))
	for i := range rows {
		guarded, plain := pts[2*i], pts[2*i+1]
		rows[i] = SensitivityRow{Class: byName[guarded.Variant], GuardedDB: guarded.mean("quality"),
			PlainDB: plain.mean("quality"), LossRatio: guarded.mean("loss")}
	}
	layout[SensitivityRow]{
		title: fmt.Sprintf("Error-class sensitivity: %s at MTBE %s (mean over %d seeds)", benchmark, fmtMTBE(mtbe), o.Seeds),
		head:  fmt.Sprintf("%-14s %14s %14s %12s", "class", "commguard dB", "unguarded dB", "guard loss"),
		line:  func(r SensitivityRow) string { return fmt.Sprintf("%-14s", r.Class) },
		cell: func(r SensitivityRow) string {
			return fmt.Sprintf(" %14.1f %14.1f %11.4f%%", r.GuardedDB, r.PlainDB, 100*r.LossRatio)
		},
	}.print(o.out(), rows)
	return rows, nil
}

var sensitivityReport = report[SensitivityRow]{
	rows: func(a *AllResults) []SensitivityRow { return a.Sensitivity },
	file: "sensitivity.csv", cols: []string{"class", "commguard_db", "unguarded_db", "guard_loss_ratio"},
	csv: func(r SensitivityRow) []string {
		return []string{r.Class.String(), f(r.GuardedDB), f(r.PlainDB), f(r.LossRatio)}
	},
	section: "Class sensitivity — quality per error class with and without CommGuard",
	mdHead:  "| class | commguard | unguarded | guard loss |",
	md: func(r SensitivityRow) string {
		return fmt.Sprintf("| %s | %.1f dB | %.1f dB | %.4f%% |", r.Class, r.GuardedDB, r.PlainDB, 100*r.LossRatio)
	},
}
