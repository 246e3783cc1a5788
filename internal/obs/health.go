package obs

import (
	"sync/atomic"
	"time"

	"commguard/internal/obs/hist"
)

// Health is the runtime-health telemetry of one run: a fixed set of
// log₂-bucket latency histograms (internal/obs/hist) sharded per core,
// plus per-core fault markers from which fault→detection latency is
// measured. Like the Tracer it is created per run, written lock-free by
// the run's goroutines through per-core single-writer shards, and
// summarized after the goroutines have joined. A nil *Health disables
// health recording throughout — call sites hold nil shards, costing one
// branch per would-be observation.
//
// The histograms:
//
//   - queue_push_wait / queue_pop_wait (ns): time a transit operation
//     spent blocked in the Fig. 6 slow-path funnel waiting for space or
//     data. The fast path (slot available on the cached view) records
//     nothing — zero observations means pure fast-path transit.
//   - queue_publish / queue_return (ns): duration of the lock-free ECC
//     working-set exchange funnels.
//   - fire_batch / fire_abft (ns): filter firing duration, plain
//     (WorkBatch) or checksummed (WorkBatchABFT including verification
//     and any recompute); a grouped run records one sample per firing.
//   - detect_wall (ns) and detect_items (items): fault→detection latency —
//     from an injected fault's manifestation (MarkFault) to the moment a
//     protection scheme notices something is wrong (Detector.Detect), in
//     wall-clock time and in items the detecting consumer ingested
//     meanwhile. This is the paper-relevant "how fast does the guard
//     notice" measurable the detectlat sweep compares across schemes.
type Health struct {
	start   time.Time
	markers []FaultMarker

	queuePushWait *hist.Hist
	queuePopWait  *hist.Hist
	queuePublish  *hist.Hist
	queueReturn   *hist.Hist
	firesBatch    *hist.Hist
	firesABFT     *hist.Hist
	detectWall    *hist.Hist
	detectItems   *hist.Hist
}

// NewHealth creates the health registry for a run with cores cores.
func NewHealth(cores int) *Health {
	if cores < 1 {
		cores = 1
	}
	return &Health{
		start:         time.Now(),
		markers:       make([]FaultMarker, cores),
		queuePushWait: hist.New("queue_push_wait", "ns", cores),
		queuePopWait:  hist.New("queue_pop_wait", "ns", cores),
		queuePublish:  hist.New("queue_publish", "ns", cores),
		queueReturn:   hist.New("queue_return", "ns", cores),
		firesBatch:    hist.New("fire_batch", "ns", cores),
		firesABFT:     hist.New("fire_abft", "ns", cores),
		detectWall:    hist.New("detect_wall", "ns", cores),
		detectItems:   hist.New("detect_items", "items", cores),
	}
}

// hists returns the registry in its fixed reporting order.
func (h *Health) hists() []*hist.Hist {
	return []*hist.Hist{
		h.queuePushWait, h.queuePopWait, h.queuePublish, h.queueReturn,
		h.firesBatch, h.firesABFT,
		h.detectWall, h.detectItems,
	}
}

// QueueShards returns the queue-latency shards for a queue owned by
// producerCore and drained by consumerCore, in the order queue.SetLatency
// takes them. Nil-safe: a nil Health yields all-nil shards.
func (h *Health) QueueShards(producerCore, consumerCore int) (pushWait, publish, popWait, ret *hist.Shard) {
	if h == nil {
		return nil, nil, nil, nil
	}
	return h.queuePushWait.Shard(producerCore), h.queuePublish.Shard(producerCore),
		h.queuePopWait.Shard(consumerCore), h.queueReturn.Shard(consumerCore)
}

// FireShards returns core's firing-duration shards of the plain and the
// checksummed kernel (WorkBatch, ABFT). Nil-safe.
func (h *Health) FireShards(core int) (batch, abft *hist.Shard) {
	if h == nil {
		return nil, nil
	}
	return h.firesBatch.Shard(core), h.firesABFT.Shard(core)
}

// Summaries merges every histogram's shards and returns the summaries in
// fixed order (empty histograms included, so the artifact schema is
// stable). Call after the run's goroutines have joined. Nil-safe.
func (h *Health) Summaries() []hist.Summary {
	if h == nil {
		return nil
	}
	hs := h.hists()
	out := make([]hist.Summary, len(hs))
	for i, hh := range hs {
		out[i] = hh.Summary()
	}
	return out
}

// FaultMarker is one core's last-fault beacon: a manifestation sequence
// number and the wall-clock offset (nanoseconds since the Health clock
// started) of the most recent injected fault on that core. The owning
// core's goroutine writes it (MarkFault); detectors on other cores poll
// the sequence word. Padded so neighbouring cores' markers never share a
// cache line.
type FaultMarker struct {
	seq   atomic.Uint64
	nanos atomic.Int64
	_     [48]byte
}

// MarkFault records that an injected fault just manifested on core. It is
// called from the fault-manifestation slow path (faults are rare by
// construction: one per MTBE instructions). Nil-safe.
func (h *Health) MarkFault(core int) {
	if h == nil || core < 0 || core >= len(h.markers) {
		return
	}
	m := &h.markers[core]
	// nanos first, then the seq increment that publishes it: a detector
	// that observes the new seq reads a timestamp at least as fresh.
	m.nanos.Store(int64(time.Since(h.start)))
	m.seq.Add(1)
}

// Detector measures fault→detection latency for one detection point (an
// AM consumer, an ABFT-checksummed filter). It is owned by a single
// goroutine — the detecting core's — which calls Observe on every item it
// ingests and Detect when its scheme flags an anomaly. Cross-core fault
// visibility comes from polling the watched cores' FaultMarkers (one
// atomic load per watched core per Observe).
//
// Arming is first-fault-wins: if several faults manifest before the
// scheme notices, latency is measured from the first — the honest "time
// until anything was noticed". Detect disarms; the next fault re-arms.
// Nil-safe: a nil Detector disables measurement at one branch per call.
type Detector struct {
	h       *Health
	watch   []*FaultMarker
	lastSeq []uint64
	wall    *hist.Shard
	items   *hist.Shard

	armed      bool
	armedNanos int64
	armedItems uint64
}

// NewDetector creates a detector recording into recordCore's shards and
// watching fault markers on watchCores (typically the upstream producer
// for an AM, the core itself for ABFT). Nil-safe: a nil Health returns a
// nil Detector.
func (h *Health) NewDetector(recordCore int, watchCores ...int) *Detector {
	if h == nil {
		return nil
	}
	d := &Detector{
		h:     h,
		wall:  h.detectWall.Shard(recordCore),
		items: h.detectItems.Shard(recordCore),
	}
	for _, c := range watchCores {
		if c >= 0 && c < len(h.markers) {
			d.watch = append(d.watch, &h.markers[c])
		}
	}
	d.lastSeq = make([]uint64, len(d.watch))
	return d
}

// Observe polls the watched fault markers; itemsIngested is the owner's
// monotone count of items consumed so far. On the first unseen fault it
// arms the latency measurement. One atomic load per watched core, no
// allocation — safe on the consumer's per-item hot path.
//
//hotpath:entry
func (d *Detector) Observe(itemsIngested uint64) {
	if d == nil {
		return
	}
	for i := range d.watch {
		m := d.watch[i]
		if s := m.seq.Load(); s != d.lastSeq[i] {
			d.lastSeq[i] = s
			if !d.armed {
				d.armed = true
				d.armedNanos = m.nanos.Load()
				d.armedItems = itemsIngested
			}
		}
	}
}

// Detect records a detection event: the owner's scheme just flagged an
// anomaly after ingesting itemsIngested items. If a fault is armed, the
// wall-clock and items-consumed latencies are recorded and the detector
// disarms; an unarmed Detect (a false positive, or a detection of a fault
// on an unwatched core) records nothing.
func (d *Detector) Detect(itemsIngested uint64) {
	if d == nil || !d.armed {
		return
	}
	d.armed = false
	wall := int64(time.Since(d.h.start)) - d.armedNanos
	if wall < 0 {
		wall = 0
	}
	d.wall.Record(uint64(wall))
	d.items.Record(itemsIngested - d.armedItems)
}

// Armed reports whether an unseen fault is pending detection.
func (d *Detector) Armed() bool {
	return d != nil && d.armed
}

// HealthSection is the "latency" section of a run snapshot: the merged
// histogram summaries with their p50/p90/p99 quantiles.
type HealthSection struct {
	Histograms []hist.Summary `json:"histograms"`
}

// Section packages the merged summaries for Snapshot.Add("latency", ...).
// Nil-safe (a nil Health yields an empty section).
func (h *Health) Section() HealthSection {
	return HealthSection{Histograms: h.Summaries()}
}
