package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"commguard/internal/commguard"
	"commguard/internal/obs"
	"commguard/internal/queue"
)

// Hot-path microbenchmarks behind `cmd/experiments -benchjson`: the same
// transit variants as BenchmarkQueueTransfer, run without the testing
// harness so the perf trajectory lands in a committable JSON artifact
// (BENCH_hotpath.json) alongside the RunAll wall-clock.

// HotpathVariant is one measured transit configuration.
type HotpathVariant struct {
	Name      string  `json:"name"`
	NsPerItem float64 `json:"ns_per_item"`
	Items     int     `json:"items"`
	// BaselineNsPerItem is the pre-overhaul measurement on the same
	// machine class, where one was recorded (0 = not measured then).
	BaselineNsPerItem float64 `json:"baseline_ns_per_item,omitempty"`
}

// HotpathRun is the variant set measured at one GOMAXPROCS level.
type HotpathRun struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	Variants   []HotpathVariant `json:"variants"`
}

// HotpathResult is the BENCH_hotpath.json payload.
type HotpathResult struct {
	// Manifest stamps provenance (go version, GOMAXPROCS, commit) so the
	// BENCH_* trajectory is self-describing across machines and PRs.
	Manifest obs.Manifest `json:"manifest"`
	// Variants holds the measurements at the machine's native GOMAXPROCS
	// (the historical flat format, kept for trajectory diffing).
	Variants []HotpathVariant `json:"variants"`
	// Runs repeats the measurement per GOMAXPROCS level (always 1, plus
	// the machine's setting when it differs).
	Runs          []HotpathRun `json:"runs"`
	RunAllSeconds float64      `json:"runall_seconds"`
	Profile       string       `json:"profile"`
}

// Pre-overhaul per-item transit baselines (mutex-per-item queue,
// time.AfterFunc waits), measured with `go test -bench` on the CI machine
// class before the hot-path rewrite. Only variants with a like-for-like
// ns/item measurement belong here.
var hotpathBaselines = map[string]float64{
	"push-pop": 32.58,
}

const hotpathChunk = 256

func hotpathQueueConfig() queue.Config {
	return queue.Config{WorkingSets: 8, WorkingSetUnits: 1024, ProtectPointers: true, Timeout: 0}
}

// measureTransit times `items` pops through the given consumer against a
// saturating leaked producer, returning ns/item. newConsumer builds the
// consumer-side state (e.g. an aligned AlignmentManager) once; the
// returned function pops n items. The producer goroutine parks on the
// full queue when measurement stops.
func measureTransit(items int, producer func(q *queue.Queue), newConsumer func(q *queue.Queue) func(n int)) float64 {
	q := queue.MustNew(0, hotpathQueueConfig())
	go producer(q)
	consume := newConsumer(q)
	// Warm up: let the producer fill ahead so the timed region measures
	// steady-state transit, not ramp-up.
	consume(hotpathChunk * 4)
	start := time.Now()
	consume(items)
	return float64(time.Since(start).Nanoseconds()) / float64(items)
}

// HotpathBench measures ns/item for the four transit variants and times
// one RunAll over the given options.
func HotpathBench(o Options, items int) (*HotpathResult, error) {
	if items < hotpathChunk {
		items = hotpathChunk
	}
	res := &HotpathResult{Profile: "full", Manifest: obs.NewManifest()}
	res.Manifest.ConfigHash = obs.ConfigHash(hotpathQueueConfig())
	if o.Quick {
		res.Profile = "quick"
	}

	// The raw producers saturate the queue per item or per chunk.
	perItem := func(q *queue.Queue) {
		for {
			q.Push(queue.DataUnit(1))
		}
	}
	chunked := func(q *queue.Queue) {
		buf := make([]uint32, hotpathChunk)
		for {
			q.PushDataN(buf)
		}
	}
	// Guarded variants: the producer inserts the frame-0 header via the HI
	// before streaming data; the consumer AM announces frame 0 so its
	// first pop consumes that header and the FSM settles into RcvCmp, the
	// steady state every later pop is measured in (Table 1's aligned row).
	guardedProducer := func(push func(q *queue.Queue)) func(q *queue.Queue) {
		return func(q *queue.Queue) {
			hi := commguard.NewHeaderInserter(q)
			hi.NewFrameComputation(0)
			push(q)
		}
	}
	alignedAM := func(q *queue.Queue) *commguard.AlignmentManager {
		am := commguard.NewAlignmentManager(q, 0)
		am.NewFrameComputation(0)
		return am
	}

	variants := []struct {
		name        string
		producer    func(q *queue.Queue)
		newConsumer func(q *queue.Queue) func(n int)
	}{
		{
			name:     "push-pop",
			producer: perItem,
			newConsumer: func(q *queue.Queue) func(n int) {
				return func(n int) {
					for i := 0; i < n; i++ {
						q.Pop()
					}
				}
			},
		},
		{
			name:     "pushn-popn",
			producer: chunked,
			newConsumer: func(q *queue.Queue) func(n int) {
				dst := make([]uint32, hotpathChunk)
				return func(n int) {
					for got := 0; got < n; {
						c, _ := q.PopDataN(dst)
						got += c
					}
				}
			},
		},
		{
			name:     "guarded-per-item",
			producer: guardedProducer(perItem),
			newConsumer: func(q *queue.Queue) func(n int) {
				am := alignedAM(q)
				return func(n int) {
					for i := 0; i < n; i++ {
						am.Pop()
					}
				}
			},
		},
		{
			name:     "guarded-batch",
			producer: guardedProducer(chunked),
			newConsumer: func(q *queue.Queue) func(n int) {
				am := alignedAM(q)
				dst := make([]uint32, hotpathChunk)
				return func(n int) {
					for got := 0; got < n; got += len(dst) {
						am.PopN(dst)
					}
				}
			},
		},
	}
	defaultProcs := runtime.GOMAXPROCS(0)
	for _, procs := range gomaxprocsLevels() {
		runtime.GOMAXPROCS(procs)
		run := HotpathRun{GOMAXPROCS: procs}
		for _, v := range variants {
			ns := measureTransit(items, v.producer, v.newConsumer)
			run.Variants = append(run.Variants, HotpathVariant{
				Name:              v.name,
				NsPerItem:         ns,
				Items:             items,
				BaselineNsPerItem: hotpathBaselines[v.name],
			})
		}
		res.Runs = append(res.Runs, run)
		// The native-level run doubles as the historical flat variant list.
		if procs == defaultProcs {
			res.Variants = run.Variants
		}
	}
	runtime.GOMAXPROCS(defaultProcs)
	if res.Variants == nil && len(res.Runs) > 0 {
		res.Variants = res.Runs[len(res.Runs)-1].Variants
	}

	start := time.Now()
	if _, err := RunAll(o); err != nil {
		return nil, err
	}
	res.RunAllSeconds = time.Since(start).Seconds()
	return res, nil
}

// WriteHotpathJSON runs HotpathBench and writes the result to path.
func WriteHotpathJSON(path string, o Options, items int) (*HotpathResult, error) {
	res, err := HotpathBench(o, items)
	if err != nil {
		return nil, err
	}
	return res, writeJSON(path, res)
}

// writeJSON writes a bench snapshot as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render prints a short human-readable summary of the measurements.
func (r *HotpathResult) Render(w func(format string, a ...any)) {
	for _, run := range r.Runs {
		if run.GOMAXPROCS != r.Manifest.GOMAXPROCS {
			w("GOMAXPROCS=%d:\n", run.GOMAXPROCS)
			for _, v := range run.Variants {
				w("  %-16s %10.1f ns/item\n", v.Name, v.NsPerItem)
			}
		}
	}
	for _, v := range r.Variants {
		if v.BaselineNsPerItem > 0 {
			w("%-18s %10.1f ns/item  (pre-overhaul %.1f, %.1fx)\n",
				v.Name, v.NsPerItem, v.BaselineNsPerItem, v.BaselineNsPerItem/v.NsPerItem)
		} else {
			w("%-18s %10.1f ns/item\n", v.Name, v.NsPerItem)
		}
	}
	w("RunAll (%s): %.2fs\n", r.Profile, r.RunAllSeconds)
}
