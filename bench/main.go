// Command bench is the repository's benchmark. It drives the public
// simulation API the way a fault-injection campaign does — Builder.New,
// then sim.Run — in four closed-loop workloads, checks every output, and
// prints the end-to-end metrics, or with -trace the per-layer metrics.
//
//	bash bench/run.sh                      # every workload, end to end
//	bash bench/run.sh -workload plain-stream -seed 2 -seconds 20
//	bash bench/run.sh -trace out/          # traced run: spans.json, layers.json
//	bash bench/run.sh -sets 2              # two sets A/B; exit 1 on disagreement
//
// Given -workload, the last line of standard output is a JSON object with
// correct, attempted, failed and metrics. See README.md for the workloads
// and metrics and why they were chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"commguard/internal/obs"
)

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics of an untraced run. Bound is the share
// of the parent's median by which a metric may worsen before it counts as
// a regression.
var endToEnd = []metricDef{
	{Name: "run_ms_min", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// ungated are printed and written beside endToEnd for context. On a
// shared host they drift with the neighbours' load by more than any
// useful bound (see README.md), so nothing is gated on them.
var ungated = []metricDef{
	{Name: "runs_per_s", Unit: "runs/s", Better: "higher"},
	{Name: "run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "run_ms_p90", Unit: "ms", Better: "lower"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{Name: "apps.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.prep_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.firings", Unit: "count", Better: "lower"},
	{Name: "stream.batch_share", Unit: "ratio", Better: "higher"},
	{Name: "stream.fire_item_share", Unit: "ratio", Better: "lower"},
	{Name: "stream.fire_batch_share", Unit: "ratio", Better: "lower"},
	{Name: "stream.fire_abft_share", Unit: "ratio", Better: "lower"},
	{Name: "stream.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "queue.items", Unit: "count", Better: "lower"},
	{Name: "queue.headers", Unit: "count", Better: "lower"},
	{Name: "queue.publish_share", Unit: "ratio", Better: "lower"},
	{Name: "queue.return_share", Unit: "ratio", Better: "lower"},
	{Name: "queue.slowpath_per_kitem", Unit: "1/kitem", Better: "lower"},
	{Name: "queue.timeouts", Unit: "count", Better: "lower"},
	{Name: "queue.pointer_ecc_ops", Unit: "count", Better: "lower"},
	{Name: "commguard.header_ratio", Unit: "ratio", Better: "lower"},
	{Name: "commguard.ops_per_item", Unit: "ops/item", Better: "lower"},
	{Name: "commguard.realignments", Unit: "count", Better: "lower"},
	{Name: "commguard.loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fault.injected", Unit: "count", Better: "lower"},
	{Name: "fault.detect_items_p50", Unit: "items", Better: "lower"},
	{Name: "abft.corrections", Unit: "count", Better: "lower"},
	{Name: "abft.ops_per_kinstr", Unit: "ops/kinstr", Better: "lower"},
	{Name: "metrics.score_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
}

const slicesPerRun = 10

// manifest records what produced a results document.
type manifest struct {
	obs.Manifest
	NumCPU  int     `json:"nproc"`
	Date    string  `json:"date"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Slices  int     `json:"slices"`
	Sets    int     `json:"sets"`
	Trace   bool    `json:"trace"`
}

// document is what -o and -trace DIR write.
type document struct {
	Manifest manifest  `json:"manifest"`
	Results  []*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed base S; fault-campaign seeds are S*1000+round (the error-free workloads do not depend on it)")
	seconds := fs.Float64("seconds", 28, "measured seconds per workload, cut into 10 slices")
	trace := fs.String("trace", "0", "0: untraced, end-to-end metrics; 1: traced, per-layer metrics; DIR: traced, also writing DIR/spans.json and DIR/layers.json")
	out := fs.String("o", "", "also write the results and a manifest to this JSON file")
	sets := fs.Int("sets", 1, "1, or 2 to run two sets A/B per workload and exit 1 unless every end-to-end metric agrees within its bound")
	golden := fs.String("write-golden", "", "regenerate the fault-campaign golden digests into this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "bench:", msg)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments")
	case *seconds <= 0:
		return usage("-seconds must be positive")
	case *sets != 1 && *sets != 2:
		return usage("-sets must be 1 or 2")
	case *sets == 2 && *trace != "0":
		return usage("-sets 2 compares untraced runs")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ws := workloads()
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			return usage(fmt.Sprintf("unknown workload %q", *name))
		}
		ws = []*workload{w}
	}
	traced := *trace != "0"
	doc := &document{Manifest: manifest{
		Manifest: obs.NewManifest(), NumCPU: runtime.NumCPU(), Date: time.Now().UTC().Format(time.RFC3339),
		Seed: *seed, Seconds: *seconds, Slices: slicesPerRun, Sets: *sets, Trace: traced,
	}}

	ok := true
	for _, w := range ws {
		var pair []*result
		for set := 1; set <= *sets; set++ {
			r, err := measureOnce(w, *seed, *seconds, traced)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if *sets > 1 {
				r.Set = set
			}
			printResult(stdout, r)
			ok = ok && r.Correct
			pair = append(pair, r)
			doc.Results = append(doc.Results, r)
		}
		if len(pair) == 2 && !printAgreement(stdout, pair[0], pair[1]) {
			ok = false
		}
	}

	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if traced && *trace != "1" {
		if err := writeTrace(*trace, doc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name != "all" && *sets == 1 {
		if err := printLine(stdout, doc.Results[0]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// measureOnce is one full run of a workload: set-up, then measurement.
func measureOnce(w *workload, seed uint64, seconds float64, traced bool) (*result, error) {
	b, err := prepare(w, seed, true)
	if err != nil {
		return nil, err
	}
	return b.measure(seconds, slicesPerRun, traced), nil
}

func defsFor(r *result) []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

func printResult(w io.Writer, r *result) {
	set := ""
	if r.Set > 0 {
		set = fmt.Sprintf(" set %d", r.Set)
	}
	fmt.Fprintf(w, "== %s%s: %d runs, %d failed", r.Workload, set, r.Attempted, r.Failed)
	if r.Golden != "" {
		fmt.Fprintf(w, ", golden %s", r.Golden)
	}
	if r.Rechecked > 0 {
		fmt.Fprintf(w, ", %d rechecked", r.Rechecked)
	}
	fmt.Fprintln(w)
	for _, d := range defsFor(r) {
		fmt.Fprintf(w, "   %-27s %14.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if !r.Traced {
		for _, d := range ungated {
			fmt.Fprintf(w, "   %-27s %14.6g %s (not gated)\n", d.Name, r.Metrics[d.Name], d.Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "   FAIL", e)
	}
}

// printAgreement prints each end-to-end metric's relative difference
// between two sets next to its bound; false if any exceeds it.
func printAgreement(w io.Writer, a, b *result) bool {
	ok := true
	fmt.Fprintf(w, "== %s agreement (set 2 vs set 1)\n", a.Workload)
	for _, d := range endToEnd {
		va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
		diff := (vb - va) / va
		verdict := "ok"
		if math.Abs(diff) > d.Bound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Fprintf(w, "   %-27s %+7.2f%%  bound ±%.0f%%  %s\n", d.Name, 100*diff, 100*d.Bound, verdict)
	}
	return ok
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLine prints the one-line JSON summary of a single workload.
func printLine(w io.Writer, r *result) error {
	metrics := map[string]valueUnit{}
	for _, d := range defsFor(r) {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, v)
		}
		metrics[d.Name] = valueUnit{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
