package experiments

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"commguard/internal/campaign"
)

// AllResults bundles every regenerated figure.
type AllResults struct {
	Fig3  []Fig3Row
	Fig7  *Fig7Result
	Fig8  []*QualitySeries
	Fig9  []Fig9Point
	Fig10 []*QualitySeries
	Fig11 []*QualitySeries
	Fig12 []Fig12Row
	Fig13 []Fig13Row
	Fig14 []Fig14Row
	// FigABFT is the new three-scheme comparison (unprotected vs CommGuard
	// vs ABFT-checksummed kernels) on the media benchmarks.
	FigABFT []FigABFTPoint
	// FigDetectLat is the fault→detection latency comparison (CommGuard
	// alignment vs ABFT checksums) from the runtime-health histograms.
	FigDetectLat []FigDetectLatPoint
	// FigCoder is the word-ECC backend comparison (Hamming vs LDPC
	// variants) across every builtin benchmark.
	FigCoder []FigCoderPoint
	// Sensitivity and CritWeight are the ablations beyond the paper's
	// figures; RunAll does not regenerate them.
	Sensitivity []SensitivityRow
	CritWeight  []CritRow
}

// A figure is one entry of the figure table: its -fig name, its RunAll
// step (empty for ablations outside RunAll), how it runs into an
// AllResults, and its flat CSV/Markdown report.
type figure struct {
	name, step string
	run        func(o Options, a *AllResults) error
	report     interface{ render(a *AllResults) *rendered }
}

// figures is the one list of figures, in paper order: cmd/experiments'
// -fig switch, RunAll's steps and WriteCSV/WriteMarkdown all read it.
var figures = []figure{
	{"3", "Figure 3", func(o Options, a *AllResults) (err error) { a.Fig3, err = Figure3(o); return }, fig3Report},
	{"7", "Figure 7", func(o Options, a *AllResults) (err error) { a.Fig7, err = Figure7(o); return }, fig7Report},
	{"8", "Figure 8", func(o Options, a *AllResults) (err error) { a.Fig8, err = Figure8(o); return }, fig8Report},
	{"9", "Figure 9", func(o Options, a *AllResults) (err error) { a.Fig9, err = Figure9(o); return }, fig9Report},
	{"10", "Figure 10", func(o Options, a *AllResults) (err error) { a.Fig10, err = Figure10(o); return }, fig10Report},
	{"11", "Figure 11", func(o Options, a *AllResults) (err error) { a.Fig11, err = Figure11(o); return }, fig11Report},
	{"12", "Figure 12", func(o Options, a *AllResults) (err error) { a.Fig12, err = Figure12(o); return }, fig12Report},
	{"13", "Figure 13", func(o Options, a *AllResults) (err error) { a.Fig13, err = Figure13(o, 3); return }, fig13Report},
	{"14", "Figure 14", func(o Options, a *AllResults) (err error) { a.Fig14, err = Figure14(o); return }, fig14Report},
	{"abft", "Figure ABFT", func(o Options, a *AllResults) (err error) { a.FigABFT, err = FigureABFT(o); return }, abftReport},
	{"detectlat", "Figure DetectLat", func(o Options, a *AllResults) (err error) {
		a.FigDetectLat, err = FigureDetectLat(o)
		return
	}, detectLatReport},
	{"coder", "Figure Coder", func(o Options, a *AllResults) (err error) { a.FigCoder, err = FigureCoder(o); return }, coderReport},
	{"sensitivity", "", func(o Options, a *AllResults) (err error) {
		a.Sensitivity, err = ClassSensitivity(o, "mp3", 128e3)
		return
	}, sensitivityReport},
	{"critweight", "", func(o Options, a *AllResults) (err error) {
		a.CritWeight, err = CritWeighting(o, 128e3)
		return
	}, critReport},
}

// FigureNames lists the names Run accepts besides "all", in paper order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, fig := range figures {
		names[i] = fig.name
	}
	return names
}

// Run regenerates one figure by name (see FigureNames), or every RunAll
// figure for "all", writing tables to o.Out.
func Run(name string, o Options) (*AllResults, error) {
	if name == "all" {
		return RunAll(o)
	}
	for _, fig := range figures {
		if fig.name == name {
			all := &AllResults{}
			return all, fig.run(o, all)
		}
	}
	return nil, fmt.Errorf("unknown figure %q", name)
}

// RunAll regenerates every figure in paper order, writing tables to
// o.Out as it goes. All figures share one reference cache, so each
// benchmark's error-free baseline is simulated once for the whole
// regeneration rather than once per figure.
func RunAll(o Options) (*AllResults, error) {
	if o.refs == nil {
		o.refs = newReferenceCache()
	}
	if o.jobsDone == nil {
		o.jobsDone = new(atomic.Int64)
	}
	all := &AllResults{}
	w := o.out()
	for _, fig := range figures {
		if fig.step == "" {
			continue
		}
		if o.Campaign != nil && o.Campaign.Interrupted() {
			// An interrupt during the previous figure already drained its
			// in-flight jobs; don't start the next one.
			return nil, campaign.ErrInterrupted
		}
		fmt.Fprintf(w, "\n=== %s ===\n", fig.step)
		start, before := time.Now(), o.jobsDone.Load()
		if o.Verbose {
			fmt.Fprintf(os.Stderr, "%s: start\n", fig.step)
		}
		err := fig.run(o, all)
		if o.Verbose {
			fmt.Fprintf(os.Stderr, "%s: done in %s (%d jobs)\n",
				fig.step, time.Since(start).Round(time.Millisecond), o.jobsDone.Load()-before)
		}
		if err != nil {
			return nil, err
		}
	}
	return all, nil
}
