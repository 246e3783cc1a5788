package commguard

import (
	"sync"

	"commguard/internal/obs"
	"commguard/internal/ppu"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// Transport wires stream-graph edges through CommGuard modules: a reliable
// Queue Manager (ECC-protected working-set pointers), a Header Inserter on
// the producer core and an Alignment Manager on the consumer core. It is
// the configuration of Fig. 3d.
type Transport struct {
	// Queue is the Queue Manager geometry; ProtectPointers is forced on
	// (the QM is a reliable module by construction, §4.3).
	Queue queue.Config
	// Pad is the value substituted for lost data (default 0).
	Pad uint32
	// ScaleFor assigns each edge to a frame domain (§5.4): the returned
	// scale is how many frame computations one frame on that edge spans.
	// nil puts every edge in the application-wide domain (scale 1).
	// Application-wide enlargement (Figs. 10-13) is instead done at the
	// PPU level via stream.EngineConfig.FrameScale.
	ScaleFor func(e *stream.Edge) int
	// Health, when non-nil, gives every edge's Alignment Manager a
	// fault→detection latency detector: the consumer-side AM watches both
	// endpoint cores' fault markers (producer faults perturb the stream it
	// drains; consumer faults perturb its own pops) and counts erroneous
	// FSM entries as detections. Should be the same registry passed to
	// stream.EngineConfig.Health.
	Health *obs.Health

	mu  sync.Mutex
	his []*HeaderInserter
	ams []*AlignmentManager
}

// NewTransport creates a CommGuard transport over the given queue geometry.
func NewTransport(qcfg queue.Config) *Transport {
	qcfg.ProtectPointers = true
	return &Transport{Queue: qcfg}
}

// Wire implements stream.Transport.
func (t *Transport) Wire(e *stream.Edge, prod, cons *ppu.Core) (stream.OutPort, stream.InPort, *queue.Queue, error) {
	qcfg := t.Queue
	qcfg.ProtectPointers = true
	q, err := queue.New(e.ID, qcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	scale := 1
	if t.ScaleFor != nil {
		if s := t.ScaleFor(e); s > 1 {
			scale = s
		}
	}
	hi := NewHeaderInserterScaled(q, scale)
	hi.SetTrace(prod.TraceRing())
	prod.Subscribe(hi)
	am := NewAlignmentManagerScaled(q, t.Pad, scale)
	am.SetTrace(cons.TraceRing())
	am.SetDetector(t.Health.NewDetector(cons.ID(), prod.ID(), cons.ID()))
	cons.Subscribe(am)

	t.mu.Lock()
	t.his = append(t.his, hi)
	t.ams = append(t.ams, am)
	t.mu.Unlock()

	return &guardedOut{q: q}, am, q, nil
}

// guardedOut is the producer endpoint. Data pushes go straight to the QM;
// headers are inserted by the HI via frame events, not by the thread.
type guardedOut struct {
	q *queue.Queue
}

// PushN transmits a whole firing's items in one guarded-transit call.
//
//hotpath:entry
func (o *guardedOut) PushN(vs []uint32) { o.q.PushDataN(vs) }

// End flushes and closes the queue. The HI already appended the
// end-of-computation header when the core's outermost scope exited (the
// engine signals listeners before calling End).
func (o *guardedOut) End() {
	o.q.Flush()
	o.q.Close()
}

// Stats aggregates the CommGuard module counters across all edges.
type Stats struct {
	Ops OpCounters
	HI  HIStats
	AM  AMStats
}

// Stats returns the transport-wide aggregate counters. Call it after the
// engine run has completed.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s Stats
	for _, hi := range t.his {
		s.Ops.Add(hi.Ops())
		st := hi.Stats()
		s.HI.HeadersInserted += st.HeadersInserted
		s.HI.EOCInserted += st.EOCInserted
	}
	for _, am := range t.ams {
		s.Ops.Add(am.Ops())
		st := am.Stats()
		s.AM.ItemsDelivered += st.ItemsDelivered
		s.AM.PaddedItems += st.PaddedItems
		s.AM.DiscardedItems += st.DiscardedItems
		s.AM.TimeoutPads += st.TimeoutPads
		s.AM.Realignments += st.Realignments
		s.AM.UncorrectableHeaders += st.UncorrectableHeaders
		for i, n := range st.StateEntries {
			s.AM.StateEntries[i] += n
		}
	}
	return s
}

// AlignmentManagers exposes the per-edge AMs (for tests and per-edge
// diagnostics such as Fig. 7 annotations).
func (t *Transport) AlignmentManagers() []*AlignmentManager {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*AlignmentManager(nil), t.ams...)
}

var (
	_ stream.Transport = (*Transport)(nil)
	// The consumer endpoint is the edge's Alignment Manager itself: every
	// thread pop goes through it.
	_ stream.InPort = (*AlignmentManager)(nil)
)
