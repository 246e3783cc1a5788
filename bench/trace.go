package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"commguard/internal/obs/hist"
	"commguard/internal/sim"
)

// closureSlack is how far the firing and funnel sums may exceed the
// engine time before the traced run fails: the sequential engine runs on
// one goroutine, so they cannot overlap, and more means double counting.
const closureSlack = 1.02

// span is one bench-side span. Spans of one run share its id; "run" is
// the root and apps.build, sim.run and metrics.score its children.
type span struct {
	name       string
	id, job    int
	kind       string        // root only
	start, dur time.Duration // start is relative to the tracer's origin
	engine     time.Duration // sim.run only: RunStats.Elapsed
}

// tracer sums the traced runs' layer counters and keeps their spans in
// memory until the measurement ends.
type tracer struct {
	origin time.Time
	runs   int
	// Bench-side span sums; Health sums are reported as shares of engineD.
	runD, buildD, simD, prepD, engineD, scoreD time.Duration
	health                                     map[string]*hist.Summary

	firings, items, headers, timeouts, pointerECC     uint64
	inserted, delivered, guardOps, realigned, lossItm uint64
	injected, corrections, abftOps, instructions      uint64

	spans []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), health: map[string]*hist.Summary{}}
}

// add records one traced run; ts holds the times around Builder.New,
// sim.Run and the quality score: ts[0] New ts[1] Run ts[2] (check)
// ts[3] Quality ts[4].
func (t *tracer) add(job int, s jobSpec, res *sim.Result, ts [5]time.Time) {
	id := t.runs
	t.runs++
	eng := res.Run.Elapsed
	build, simRun, score := ts[1].Sub(ts[0]), ts[2].Sub(ts[1]), ts[4].Sub(ts[3])
	t.runD += ts[4].Sub(ts[0])
	t.buildD += build
	t.simD += simRun
	t.prepD += simRun - eng
	t.engineD += eng
	t.scoreD += score

	for _, h := range res.Health {
		m, ok := t.health[h.Name]
		if !ok {
			m = &hist.Summary{Name: h.Name, Unit: h.Unit}
			t.health[h.Name] = m
		}
		m.Merge(h)
	}
	for _, c := range res.Run.Cores {
		t.firings += c.Firings
		t.injected += c.Errors.Total()
		t.corrections += c.ABFT.Corrections
		t.abftOps += c.ABFT.Ops()
		t.instructions += c.Instructions
	}
	qt := res.Run.QueueTotals()
	t.items += qt.ItemLoads
	t.headers += qt.HeaderLoads
	t.timeouts += qt.PushTimeouts + qt.PopTimeouts
	t.pointerECC += qt.PointerECCOps
	if g := res.Guard; g != nil {
		t.inserted += g.HI.HeadersInserted
		t.delivered += g.AM.ItemsDelivered
		t.guardOps += g.Ops.Total()
		t.realigned += g.AM.Realignments
		t.lossItm += g.AM.DataLossItems()
	}

	at := func(x time.Time) time.Duration { return x.Sub(t.origin) }
	t.spans = append(t.spans,
		span{name: "run", id: id, job: job, kind: s.String(), start: at(ts[0]), dur: ts[4].Sub(ts[0])},
		span{name: "apps.build", id: id, start: at(ts[0]), dur: build},
		span{name: "sim.run", id: id, start: at(ts[1]), dur: simRun, engine: eng},
		span{name: "metrics.score", id: id, start: at(ts[3]), dur: score},
	)
}

// hist returns the merged sum (in ns or items) and count of one Health
// histogram.
func (t *tracer) hist(name string) (sum, count float64) {
	if h, ok := t.health[name]; ok {
		return float64(h.Sum), float64(h.Count)
	}
	return 0, 0
}

// attributed is the firing and slow-path funnel time the engine reports.
func (t *tracer) attributed() float64 {
	total := 0.0
	for _, name := range []string{"fire_item", "fire_batch", "fire_abft", "queue_publish", "queue_return"} {
		sum, _ := t.hist(name)
		total += sum
	}
	return total
}

// closure checks that the attributed time fits in the engine time.
func (t *tracer) closure() error {
	if a, e := t.attributed(), float64(t.engineD); a > closureSlack*e {
		return fmt.Errorf("closure: firing and funnel sums are %.3f× engine time, limit %.2f×", a/e, closureSlack)
	}
	return nil
}

// layers derives the per-layer metrics, as means per traced run or as
// ratios of the traced runs' sums.
func (t *tracer) layers(overheadPct float64) map[string]float64 {
	n := float64(t.runs)
	perRun := func(v uint64) float64 { return float64(v) / n }
	meanMs := func(d time.Duration) float64 { return ms(d) / n }
	share := func(name string) float64 {
		sum, _ := t.hist(name)
		return ratio(sum, float64(t.engineD))
	}
	_, itemFires := t.hist("fire_item")
	_, batchFires := t.hist("fire_batch")
	_, abftFires := t.hist("fire_abft")
	_, publishes := t.hist("queue_publish")
	_, returns := t.hist("queue_return")
	detect := hist.Summary{}
	if h, ok := t.health["detect_items"]; ok {
		detect = *h
	}
	return map[string]float64{
		"apps.build_ms":             meanMs(t.buildD),
		"sim.prep_ms":               meanMs(t.prepD),
		"stream.engine_ms":          meanMs(t.engineD),
		"stream.firings":            perRun(t.firings),
		"stream.batch_share":        ratio(batchFires+abftFires, itemFires+batchFires+abftFires),
		"stream.fire_item_share":    share("fire_item"),
		"stream.fire_batch_share":   share("fire_batch"),
		"stream.fire_abft_share":    share("fire_abft"),
		"stream.unattributed_share": 1 - ratio(t.attributed(), float64(t.engineD)),
		"queue.items":               perRun(t.items),
		"queue.headers":             perRun(t.headers),
		"queue.publish_share":       share("queue_publish"),
		"queue.return_share":        share("queue_return"),
		"queue.slowpath_per_kitem":  1000 * ratio(publishes+returns, float64(t.items)),
		"queue.timeouts":            perRun(t.timeouts),
		"queue.pointer_ecc_ops":     perRun(t.pointerECC),
		"commguard.header_ratio":    ratio(float64(t.inserted), float64(t.delivered)),
		"commguard.ops_per_item":    ratio(float64(t.guardOps), float64(t.delivered)),
		"commguard.realignments":    perRun(t.realigned),
		"commguard.loss_ratio":      ratio(float64(t.lossItm), float64(t.delivered)),
		"fault.injected":            perRun(t.injected),
		"fault.detect_items_p50":    detect.P50,
		"abft.corrections":          perRun(t.corrections),
		"abft.ops_per_kinstr":       1000 * ratio(float64(t.abftOps), float64(t.instructions)),
		"metrics.score_ms":          meanMs(t.scoreD),
		"obs.trace_overhead_pct":    overheadPct,
	}
}

// selfTimes returns each span's mean self time per run: its duration
// less the part its children cover. Only "run" has children.
func (t *tracer) selfTimes() map[string]float64 {
	n := float64(t.runs)
	return map[string]float64{
		"run":           ms(t.runD-t.buildD-t.simD-t.scoreD) / n,
		"apps.build":    ms(t.buildD) / n,
		"sim.run":       ms(t.simD) / n,
		"metrics.score": ms(t.scoreD) / n,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceEvent is one Chrome trace event ("X" complete events, µs).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes DIR/spans.json (Chrome trace events, one process per
// workload) and DIR/layers.json (the results).
func writeTrace(dir string, doc *document) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	events := []traceEvent{}
	for pid, r := range doc.Results {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": r.Workload}})
		for _, s := range r.spans {
			args := map[string]any{"run": s.id}
			switch s.name {
			case "run":
				args["job"], args["kind"] = s.job, s.kind
			case "sim.run":
				args["engine_ms"] = ms(s.engine)
			}
			events = append(events, traceEvent{Name: s.name, Ph: "X", Pid: pid + 1, Tid: 1,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Args: args})
		}
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), doc)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
