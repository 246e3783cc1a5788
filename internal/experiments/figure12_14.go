package experiments

import (
	"fmt"

	"commguard/internal/metrics"
	"commguard/internal/sim"
)

// counterSweep is the error-free CommGuard run of every benchmark that
// Figs. 12 and 14 read counters from (one job per app).
func counterSweep(o Options, fig, phase string, ms ...metric) ([]point, error) {
	return sweep{fig: fig, phase: phase, apps: o.builders(), prots: []sim.Protection{sim.CommGuard}, metrics: ms}.run(o)
}

// Fig12Row is one benchmark's header memory-event overhead.
type Fig12Row struct {
	App string
	// LoadRatio and StoreRatio are header loads/stores over all processor
	// loads/stores (Fig. 12's two bars).
	LoadRatio  float64
	StoreRatio float64
}

// Figure12 reproduces the memory-overhead figure: the extra loads and
// stores caused by CommGuard's in-band headers, relative to all processor
// memory events, measured on error-free runs. The paper's shape: gmean
// under 0.2%, worst case audiobeamformer (one header per data item on its
// per-sample frames) still under 1%.
func Figure12(o Options) ([]Fig12Row, error) {
	// memShare is a run's header share of its load (or store) events.
	memShare := func(r *sim.Result, stores bool) float64 {
		qt := r.Run.QueueTotals()
		header, core := qt.HeaderLoads, uint64(0)
		if stores {
			header = qt.HeaderStores
		}
		for _, c := range r.Run.Cores {
			if stores {
				core += c.Stores
			} else {
				core += c.Loads
			}
		}
		return ratio(header, core+header)
	}
	pts, err := counterSweep(o, "fig12", "Figure 12",
		metric{"LoadRatio", func(r *sim.Result, _ []float64) any { return memShare(r, false) }},
		metric{"StoreRatio", func(r *sim.Result, _ []float64) any { return memShare(r, true) }},
	)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	var loads, stores []float64
	for _, p := range pts {
		r := Fig12Row{App: p.App, LoadRatio: p.mean("LoadRatio"), StoreRatio: p.mean("StoreRatio")}
		rows = append(rows, r)
		loads, stores = append(loads, r.LoadRatio), append(stores, r.StoreRatio)
	}
	rows = append(rows, Fig12Row{App: "GMean", LoadRatio: metrics.GeoMean(loads), StoreRatio: metrics.GeoMean(stores)})
	layout[Fig12Row]{
		title: "Figure 12: header loads/stores as a share of all loads/stores (error-free, CommGuard)",
		head:  fmt.Sprintf("%-16s %10s %10s", "benchmark", "loads", "stores"),
		line:  func(r Fig12Row) string { return fmt.Sprintf("%-16s", r.App) },
		cell:  func(r Fig12Row) string { return fmt.Sprintf(" %9.3f%% %9.3f%%", 100*r.LoadRatio, 100*r.StoreRatio) },
	}.print(o.out(), rows)
	return rows, nil
}

var fig12Report = report[Fig12Row]{
	rows: func(a *AllResults) []Fig12Row { return a.Fig12 },
	file: "figure12.csv", cols: []string{"benchmark", "header_load_ratio", "header_store_ratio"},
	csv:     func(r Fig12Row) []string { return []string{r.App, f(r.LoadRatio), f(r.StoreRatio)} },
	section: "Figure 12 — header memory-event share",
	mdHead:  "| benchmark | loads | stores |",
	md: func(r Fig12Row) string {
		return fmt.Sprintf("| %s | %.3f%% | %.3f%% |", r.App, 100*r.LoadRatio, 100*r.StoreRatio)
	},
}

// Fig14Row is one benchmark's CommGuard suboperation activity relative to
// committed processor instructions, split into the figure's categories.
type Fig14Row struct {
	App        string
	FSMCounter float64
	ECC        float64
	HeaderBit  float64
	Total      float64
}

// Figure14 reproduces the suboperation figure: CommGuard hardware
// operations (FSM/counter updates, header ECC, header-bit checks, plus the
// QM's shared-pointer ECC traffic) normalized to committed instructions,
// on error-free runs. The paper's shape: gmean ~2%, worst case
// audiobeamformer ~4.9%, header-bit checks the most frequent category.
// The GMean row is the geometric mean of each column.
func Figure14(o Options) ([]Fig14Row, error) {
	perInstr := func(ops func(r *sim.Result) uint64) func(*sim.Result, []float64) any {
		return func(r *sim.Result, _ []float64) any { return ratio(ops(r), r.Run.TotalInstructions()) }
	}
	pts, err := counterSweep(o, "fig14", "Figure 14",
		metric{"FSMCounter", perInstr(func(r *sim.Result) uint64 { return r.Guard.Ops.FSMCounter })},
		metric{"ECC", perInstr(func(r *sim.Result) uint64 { return r.Guard.Ops.ECC + r.Run.QueueTotals().PointerECCOps })},
		metric{"HeaderBit", perInstr(func(r *sim.Result) uint64 { return r.Guard.Ops.HeaderBit })},
	)
	if err != nil {
		return nil, err
	}
	var rows []Fig14Row
	cols := make([][]float64, 4)
	for _, p := range pts {
		r := Fig14Row{App: p.App, FSMCounter: p.mean("FSMCounter"), ECC: p.mean("ECC"), HeaderBit: p.mean("HeaderBit")}
		r.Total = r.FSMCounter + r.ECC + r.HeaderBit
		rows = append(rows, r)
		for i, v := range []float64{r.FSMCounter, r.ECC, r.HeaderBit, r.Total} {
			cols[i] = append(cols[i], v)
		}
	}
	rows = append(rows, Fig14Row{App: "GMean", FSMCounter: metrics.GeoMean(cols[0]), ECC: metrics.GeoMean(cols[1]),
		HeaderBit: metrics.GeoMean(cols[2]), Total: metrics.GeoMean(cols[3])})
	layout[Fig14Row]{
		title: "Figure 14: CommGuard suboperations per committed instruction (error-free)",
		head:  fmt.Sprintf("%-16s %12s %8s %12s %8s", "benchmark", "FSM/counter", "ECC", "header-bit", "total"),
		line:  func(r Fig14Row) string { return fmt.Sprintf("%-16s", r.App) },
		cell: func(r Fig14Row) string {
			return fmt.Sprintf(" %11.3f%% %7.3f%% %11.3f%% %7.3f%%", 100*r.FSMCounter, 100*r.ECC, 100*r.HeaderBit, 100*r.Total)
		},
	}.print(o.out(), rows)
	return rows, nil
}

var fig14Report = report[Fig14Row]{
	rows: func(a *AllResults) []Fig14Row { return a.Fig14 },
	file: "figure14.csv", cols: []string{"benchmark", "fsm_counter", "ecc", "header_bit", "total"},
	csv: func(r Fig14Row) []string {
		return []string{r.App, f(r.FSMCounter), f(r.ECC), f(r.HeaderBit), f(r.Total)}
	},
	section: "Figure 14 — CommGuard suboperations per instruction",
	mdHead:  "| benchmark | FSM/counter | ECC | header-bit | total |",
	md: func(r Fig14Row) string {
		return fmt.Sprintf("| %s | %.3f%% | %.3f%% | %.3f%% | %.3f%% |",
			r.App, 100*r.FSMCounter, 100*r.ECC, 100*r.HeaderBit, 100*r.Total)
	},
}
