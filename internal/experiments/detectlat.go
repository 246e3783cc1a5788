package experiments

import (
	"fmt"
	"strconv"

	"commguard/internal/campaign"
	"commguard/internal/obs/hist"
	"commguard/internal/sim"
)

// FigDetectLatPoint is one (benchmark, protection, MTBE) cell of the
// detection-latency figure: how many faults the scheme detected and how
// long detection took, in items consumed past the fault and in
// wall-clock time. The histograms are exact cross-seed aggregates
// (bucket-wise merges of the per-run log2 histograms, not means of
// quantiles).
type FigDetectLatPoint struct {
	App        string
	Protection sim.Protection
	MTBE       float64
	// Runs is the number of seeds aggregated; Detections the total
	// detection count across them.
	Runs       int
	Detections uint64
	// Wall is the fault→detection wall-clock latency aggregate (ns).
	// Scheduling-dependent: reproducible only in distribution, never
	// bit-for-bit.
	Wall hist.Summary
	// Items is the fault→detection latency in items the consumer ingested
	// between the fault manifesting and the scheme flagging it — the
	// paper-facing metric (wall-clock-free, bit-reproducible under
	// -sequential). CommGuard's AM detects at the next misaligned header,
	// so its latency is bounded by a frame; ABFT detects at its own
	// firing's checksum verify, so its item latency is ~0.
	Items hist.Summary
}

// detectLatProtections is the figure's scheme axis: the two schemes that
// actually detect faults. (The unguarded baselines never detect anything
// — there is no latency to measure.)
var detectLatProtections = []sim.Protection{sim.CommGuard, sim.ABFT}

// detectSummary pulls one named histogram out of a run's health set.
func detectSummary(summaries []hist.Summary, name string) hist.Summary {
	for _, s := range summaries {
		if s.Name == name {
			return s
		}
	}
	return hist.Summary{Name: name}
}

// FigureDetectLat measures fault→detection latency on the media
// benchmarks across the MTBE sweep, CommGuard vs ABFT — the figure the
// runtime-health layer exists to produce. Expected shape: CommGuard's AM
// only notices a fault when the header stream misaligns, up to a frame
// of items later; ABFT's checksum verify runs inside the faulted firing
// itself, detecting within ~0 items. Wall-clock columns are printed only
// for concurrent runs (they are scheduling noise under -sequential, and
// omitting them keeps sequential output diff-stable).
func FigureDetectLat(o Options) ([]FigDetectLatPoint, error) {
	media, err := o.pick("jpeg", "mp3")
	if err != nil {
		return nil, err
	}
	// The payload journals the raw bucket arrays, so a resumed campaign
	// reconstructs the exact aggregate a fresh one computes.
	buckets := func(name string) func(*sim.Result, []float64) any {
		return func(r *sim.Result, _ []float64) any { return detectSummary(r.Health, name).Buckets }
	}
	sum := func(name string) func(*sim.Result, []float64) any {
		return func(r *sim.Result, _ []float64) any { return detectSummary(r.Health, name).Sum }
	}
	pts, err := sweep{
		fig: "detectlat", phase: "Figure DetectLat", apps: media, prots: detectLatProtections,
		mtbes: o.MTBEs, seeds: seedList(o.Seeds, 7, 1000),
		config: func(j campaign.Job, c *sim.Config) {
			c.Health = true
			c.Flight = o.flightOptions("detectlat", j.App, j.Protection, j.MTBE, j.Seed)
		},
		metrics: []metric{
			{"wall_buckets", buckets("detect_wall")}, {"wall_sum", sum("detect_wall")},
			{"item_buckets", buckets("detect_items")}, {"item_sum", sum("detect_items")},
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	rows := make([]FigDetectLatPoint, len(pts))
	for i, p := range pts {
		r := FigDetectLatPoint{
			App: p.App, Protection: p.prot, MTBE: p.MTBE, Runs: len(p.runs),
			Wall:  hist.Summary{Name: "detect_wall", Unit: "ns"},
			Items: hist.Summary{Name: "detect_items", Unit: "items"},
		}
		for _, run := range p.runs {
			r.Wall.Merge(hist.FromBuckets("detect_wall", "ns", get[[]uint64](run, "wall_buckets"), get[uint64](run, "wall_sum")))
			r.Items.Merge(hist.FromBuckets("detect_items", "items", get[[]uint64](run, "item_buckets"), get[uint64](run, "item_sum")))
		}
		r.Detections = r.Items.Count
		rows[i] = r
	}
	headFmt, cellFmt := " %14s %8s %8s", " %9d dets %8.0f %8.0f"
	extra := []any{"itm p50", "itm p99"}
	if !o.Sequential {
		headFmt += " %9s %9s"
		extra = append(extra, "wall p50", "wall p99")
	}
	layout[FigDetectLatPoint]{
		title: "Figure DetectLat: fault→detection latency, CommGuard alignment vs ABFT checksums",
		head:  fmt.Sprintf("  %-8s", "MTBE") + heads(headFmt, protNames(detectLatProtections), extra...),
		block: func(p FigDetectLatPoint) string { return p.App + ":" },
		line:  func(p FigDetectLatPoint) string { return fmt.Sprintf("  %-8s", fmtMTBE(p.MTBE)) },
		cell: func(p FigDetectLatPoint) string {
			c := fmt.Sprintf(cellFmt, p.Detections, p.Items.P50, p.Items.P99)
			if !o.Sequential {
				c += fmt.Sprintf(" %7.0fus %7.0fus", p.Wall.P50/1e3, p.Wall.P99/1e3)
			}
			return c
		},
	}.print(o.out(), rows)
	return rows, nil
}

var detectLatReport = report[FigDetectLatPoint]{
	rows: func(a *AllResults) []FigDetectLatPoint { return a.FigDetectLat },
	file: "figuredetectlat.csv",
	cols: []string{"benchmark", "protection", "mtbe", "runs", "detections", "items_p50", "items_p99"},
	csv: func(r FigDetectLatPoint) []string {
		return []string{r.App, r.Protection.String(), f(r.MTBE), strconv.Itoa(r.Runs),
			strconv.FormatUint(r.Detections, 10), f(r.Items.P50), f(r.Items.P99)}
	},
	section: "Figure DetectLat — fault→detection latency (items consumed), CommGuard vs ABFT",
	mdHead:  "| benchmark | protection | MTBE | runs | detections | items p50 | items p99 |",
	md: func(r FigDetectLatPoint) string {
		return fmt.Sprintf("| %s | %s | %s | %d | %d | %.0f | %.0f |",
			r.App, r.Protection, fmtMTBE(r.MTBE), r.Runs, r.Detections, r.Items.P50, r.Items.P99)
	},
}
