package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"commguard/internal/sim"
)

// Fig7Result is one annotated jpeg run with CommGuard: the paper's example
// at MTBE 512k showed 16 pad/discard operations with PSNR 20.2 dB.
type Fig7Result struct {
	MTBE         float64
	PSNR         float64
	Pads         uint64
	Discards     uint64
	Realignments uint64
}

// Figure7 reproduces the example jpeg run of Fig. 7: one CommGuard decode
// at MTBE 512k with realignment activity counted (the pad/discard arrows
// of the paper's annotated output).
func Figure7(o Options) (*Fig7Result, error) {
	b, err := o.builder("jpeg")
	if err != nil {
		return nil, err
	}
	rc := o.refCache()
	ref, err := rc.get(b)
	if err != nil {
		return nil, err
	}
	inst, err := b.New()
	if err != nil {
		return nil, err
	}
	const mtbe = 512e3
	cfg := sim.Config{Protection: sim.CommGuard, MTBE: mtbe, Seed: 2015, Sequential: o.Sequential, Trace: o.TracePath != ""}
	res, err := sim.Run(inst, cfg, ref)
	if err != nil {
		return nil, err
	}
	if o.TracePath != "" {
		paths, err := res.WriteArtifacts(o.TracePath, cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.out(), "trace: %d events -> %s\n",
			len(res.Trace.Events), strings.Join(paths, ", "))
	}
	r := &Fig7Result{MTBE: mtbe, PSNR: res.Quality}
	if res.Guard != nil {
		r.Pads = res.Guard.AM.PaddedItems
		r.Discards = res.Guard.AM.DiscardedItems
		r.Realignments = res.Guard.AM.Realignments
	}
	w := o.out()
	fmt.Fprintf(w, "Figure 7: example jpeg run with CommGuard (MTBE %s/core)\n", fmtMTBE(mtbe))
	fmt.Fprintf(w, "PSNR %.1f dB, %d padded items, %d discarded items, %d realignment events\n",
		r.PSNR, r.Pads, r.Discards, r.Realignments)
	return r, nil
}

var fig7Report = report[*Fig7Result]{
	rows: func(a *AllResults) []*Fig7Result {
		if a.Fig7 == nil {
			return nil
		}
		return []*Fig7Result{a.Fig7}
	},
	file: "figure7.csv", cols: []string{"mtbe", "psnr_db", "padded_items", "discarded_items", "realignments"},
	csv: func(r *Fig7Result) []string {
		return []string{f(r.MTBE), f(r.PSNR), strconv.FormatUint(r.Pads, 10),
			strconv.FormatUint(r.Discards, 10), strconv.FormatUint(r.Realignments, 10)}
	},
	section: "Figure 7 — example jpeg run",
	md: func(r *Fig7Result) string {
		return fmt.Sprintf("PSNR %.1f dB at MTBE %s; %d padded, %d discarded items, %d realignments.",
			r.PSNR, fmtMTBE(r.MTBE), r.Pads, r.Discards, r.Realignments)
	},
}

// Fig9Point is one jpeg visual-quality sample of Fig. 9.
type Fig9Point struct {
	MTBE float64
	PSNR float64
}

// Figure9 reproduces Fig. 9: jpeg output PSNR at the paper's four example
// MTBEs (128k, 512k, 2048k, 8192k), quality rising toward the error-free
// baseline as errors thin out. Each MTBE runs the one fixed seed 99.
func Figure9(o Options) ([]Fig9Point, error) {
	jpeg, err := o.pick("jpeg")
	if err != nil {
		return nil, err
	}
	pts, err := sweep{
		fig: "fig9", phase: "Figure 9", apps: jpeg, prots: []sim.Protection{sim.CommGuard},
		mtbes: []float64{128e3, 512e3, 2048e3, 8192e3}, seeds: []int64{99},
		metrics: []metric{{"psnr", runQuality}},
	}.run(o)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Point, len(pts))
	for i, p := range pts {
		rows[i] = Fig9Point{MTBE: p.MTBE, PSNR: p.mean("psnr")}
	}
	layout[Fig9Point]{
		title: "Figure 9: jpeg PSNR at example MTBEs (CommGuard)",
		head:  fmt.Sprintf("%-12s %12s", "MTBE", "PSNR (dB)"),
		line:  func(p Fig9Point) string { return fmt.Sprintf("%-12s", fmtMTBE(p.MTBE)) },
		cell:  func(p Fig9Point) string { return fmt.Sprintf(" %12s", fmtDB(p.PSNR)) },
	}.print(o.out(), rows)
	return rows, nil
}

var fig9Report = report[Fig9Point]{
	rows: func(a *AllResults) []Fig9Point { return a.Fig9 },
	file: "figure9.csv", cols: []string{"mtbe", "psnr_db"},
	csv:     func(p Fig9Point) []string { return []string{f(p.MTBE), f(p.PSNR)} },
	section: "Figure 9 — jpeg PSNR ladder",
	mdHead:  "| MTBE | PSNR (dB) |",
	md:      func(p Fig9Point) string { return fmt.Sprintf("| %s | %.1f |", fmtMTBE(p.MTBE), p.PSNR) },
}
