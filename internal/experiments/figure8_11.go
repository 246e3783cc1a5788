package experiments

import (
	"fmt"
	"strconv"

	"commguard/internal/apps"
	"commguard/internal/metrics"
	"commguard/internal/sim"
)

// QualityPoint is one swept point of a quality figure.
type QualityPoint struct {
	MTBE       float64
	FrameScale int
	Quality    metrics.Summary
	// LossRatio summarizes Fig. 8's padded+discarded ratio at this point.
	LossRatio metrics.Summary
}

// QualitySeries is one benchmark's curve.
type QualitySeries struct {
	App    string
	Metric string
	// ErrorFreeDB is the error-free baseline (Inf for self-referenced
	// benchmarks, finite codec baselines for jpeg/mp3).
	ErrorFreeDB float64
	Points      []QualityPoint
}

// sweepQuality runs benchmarks across scales x MTBEs x seeds under
// CommGuard protection and summarizes quality and loss per point, one
// series per benchmark. fig labels the campaign jobs: Fig. 8 and Fig. 10
// sweep overlapping configurations, and the figure label keeps their
// journal keys distinct.
func sweepQuality(o Options, fig string, bs []apps.Builder, scales []int) ([]*QualitySeries, error) {
	pts, err := sweep{
		fig: fig, phase: fig + " sweep", apps: bs, prots: []sim.Protection{sim.CommGuard},
		scales: scales, mtbes: o.MTBEs, seeds: seedList(o.Seeds, 7, 1000),
		metrics: []metric{
			{"quality", runQuality},
			{"loss", func(r *sim.Result, _ []float64) any { return r.DataLossRatio() }},
			{"metric", func(r *sim.Result, _ []float64) any { return r.Metric }},
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	var all []*QualitySeries
	for _, p := range pts {
		if len(all) == 0 || all[len(all)-1].App != p.App {
			all = append(all, &QualitySeries{App: p.App, ErrorFreeDB: p.ef, Metric: get[string](p.runs[0], "metric")})
		}
		s := all[len(all)-1]
		s.Points = append(s.Points, QualityPoint{
			MTBE: p.MTBE, FrameScale: p.FrameScale,
			Quality: p.quality(), LossRatio: p.stat("loss", 1),
		})
	}
	return all, nil
}

// seriesPoint is one point of a quality series, flattened for tables.
type seriesPoint struct {
	*QualitySeries
	QualityPoint
}

func seriesPoints(all []*QualitySeries) []seriesPoint {
	if all == nil {
		return nil
	}
	var out []seriesPoint
	for _, s := range all {
		for _, p := range s.Points {
			out = append(out, seriesPoint{s, p})
		}
	}
	return out
}

// Figure8 reproduces the data-loss figure: the ratio of padded+discarded
// items to accepted items across MTBEs for all six benchmarks under
// CommGuard. The paper's shape: loss below 0.2% for five benchmarks even
// at MTBE 64k, jpeg losing the most (its frames are the largest relative
// to its item rate), and loss falling roughly linearly with MTBE.
func Figure8(o Options) ([]*QualitySeries, error) {
	all, err := sweepQuality(o, "fig8", o.builders(), []int{1})
	if err != nil {
		return nil, err
	}
	layout[seriesPoint]{
		title: "Figure 8: ratio of lost (padded+discarded) to accepted data vs MTBE (CommGuard)",
		head:  fmt.Sprintf("%-16s", "benchmark") + heads(" %10s", fmtMTBEs(o.MTBEs)),
		line:  func(p seriesPoint) string { return fmt.Sprintf("%-16s", p.App) },
		cell:  func(p seriesPoint) string { return fmt.Sprintf(" %10.2e", p.LossRatio.Mean) },
		spark: func(p seriesPoint) float64 { return p.LossRatio.Mean },
	}.print(o.out(), seriesPoints(all))
	return all, nil
}

// Figure10 reproduces the media-quality curves: jpeg PSNR (10a) and mp3
// SNR (10b) vs MTBE, across frame-size scales {1,2,4,8}, mean and standard
// deviation over seeds. The paper's shape: quality climbs with MTBE toward
// the error-free lossy baseline (35.6 dB PSNR / 9.4 dB SNR there); larger
// frames realign less often, trading overhead for per-event damage.
func Figure10(o Options) ([]*QualitySeries, error) {
	return qualityFigure(o, "fig10", "Figure 10: jpeg PSNR and mp3 SNR vs MTBE and frame size (CommGuard)",
		[]string{"jpeg", "mp3"}, o.FrameScales)
}

// Figure11 reproduces the remaining benchmarks' quality curves: SNR of
// error-prone runs against error-free runs (error-free SNR is infinity).
// complex-fir also sweeps frame sizes (Fig. 11c).
func Figure11(o Options) ([]*QualitySeries, error) {
	out, err := qualityFigure(o, "fig11", "Figure 11: SNR vs MTBE for the non-media benchmarks (CommGuard)",
		[]string{"audiobeamformer", "channelvocoder", "fft"}, []int{1})
	if err != nil {
		return nil, err
	}
	cf, err := qualityFigure(o, "fig11", "Figure 11c: complex-fir SNR vs MTBE across frame sizes",
		[]string{"complex-fir"}, o.FrameScales)
	if err != nil {
		return nil, err
	}
	return append(out, cf...), nil
}

func qualityFigure(o Options, fig, title string, names []string, scales []int) ([]*QualitySeries, error) {
	bs, err := o.pick(names...)
	if err != nil {
		return nil, err
	}
	all, err := sweepQuality(o, fig, bs, scales)
	if err != nil {
		return nil, err
	}
	layout[seriesPoint]{
		title: title,
		head:  fmt.Sprintf("  %-8s", "scale") + heads(" %12s", fmtMTBEs(o.MTBEs)),
		block: func(p seriesPoint) string {
			return fmt.Sprintf("%s (%s, error-free %s dB)", p.App, p.Metric, fmtDB(p.ErrorFreeDB))
		},
		line:  func(p seriesPoint) string { return fmt.Sprintf("  x%-7d", p.FrameScale) },
		cell:  func(p seriesPoint) string { return fmt.Sprintf(" %6.1f±%-5.1f", p.Quality.Mean, p.Quality.StdDev) },
		spark: func(p seriesPoint) float64 { return p.Quality.Mean },
	}.print(o.out(), seriesPoints(all))
	return all, nil
}

var (
	fig8Report = seriesReport(func(a *AllResults) []*QualitySeries { return a.Fig8 },
		"figure8.csv", "Figure 8 — data-loss ratio vs MTBE", true)
	fig10Report = seriesReport(func(a *AllResults) []*QualitySeries { return a.Fig10 },
		"figure10.csv", "Figure 10 — media quality vs MTBE and frame size", false)
	fig11Report = seriesReport(func(a *AllResults) []*QualitySeries { return a.Fig11 },
		"figure11.csv", "Figure 11 — stream quality vs MTBE", false)
)

// seriesReport is the flat report of a quality figure; loss adds Fig. 8's
// loss-ratio column.
func seriesReport(series func(a *AllResults) []*QualitySeries, file, section string, loss bool) report[seriesPoint] {
	r := report[seriesPoint]{
		rows: func(a *AllResults) []seriesPoint { return seriesPoints(series(a)) },
		file: file, cols: []string{"benchmark", "metric", "error_free_db", "mtbe", "frame_scale", "mean", "stddev"},
		csv: func(p seriesPoint) []string {
			row := []string{p.App, p.Metric, f(p.ErrorFreeDB), f(p.MTBE),
				strconv.Itoa(p.FrameScale), f(p.Quality.Mean), f(p.Quality.StdDev)}
			if loss {
				row = append(row, f(p.LossRatio.Mean))
			}
			return row
		},
		section: section,
		mdHead:  "| benchmark | scale | MTBE | mean | stddev |",
		md: func(p seriesPoint) string {
			row := fmt.Sprintf("| %s | x%d | %s | %s | %.2f |",
				p.App, p.FrameScale, fmtMTBE(p.MTBE), fmtDB(p.Quality.Mean), p.Quality.StdDev)
			if loss {
				row += fmt.Sprintf(" %.3g |", p.LossRatio.Mean)
			}
			return row
		},
	}
	if loss {
		r.cols = append(r.cols, "loss_ratio_mean")
		r.mdHead += " loss |"
	}
	return r
}
