package commguard

import (
	"commguard/internal/ecc"
	"commguard/internal/obs"
	"commguard/internal/queue"
)

// HeaderInserter is the producer-side CommGuard module (§4.1). It
// subscribes to the producer core's frame-progress events (ppu.FrameListener)
// and inserts an alignment marker into its outgoing queue at the start of
// every frame computation. The thread itself is oblivious to the insertions.
type HeaderInserter struct {
	q      *queue.Queue
	domain frameDomain
	ops    OpCounters
	stats  HIStats

	// coder is the queue's ECC backend, resolved once at construction;
	// encOps is its per-header compute-ECC price (CostModel.HeaderEncodeOps).
	coder  ecc.Coder
	encOps uint64

	// trace records header insertions into the producer core's ring (nil =
	// tracing off).
	trace *obs.Ring
	qid   int32
}

// HIStats records the Header Inserter's activity.
type HIStats struct {
	// HeadersInserted counts regular frame headers pushed.
	HeadersInserted uint64
	// EOCInserted counts end-of-computation headers pushed (one per run).
	EOCInserted uint64
}

// NewHeaderInserter creates the HI for one outgoing queue with the
// application-wide frame definition (domain scale 1).
func NewHeaderInserter(q *queue.Queue) *HeaderInserter {
	return NewHeaderInserterScaled(q, 1)
}

// NewHeaderInserterScaled creates an HI whose edge belongs to a frame
// domain covering scale frame computations per frame (§5.4). The consumer
// side of the edge must use the same scale.
func NewHeaderInserterScaled(q *queue.Queue, scale int) *HeaderInserter {
	c := q.Coder()
	return &HeaderInserter{q: q, domain: newFrameDomain(scale), coder: c, encOps: c.Cost().HeaderEncodeOps}
}

// SetTrace attaches the producer core's event ring (nil disables tracing).
func (hi *HeaderInserter) SetTrace(r *obs.Ring) {
	hi.trace = r
	hi.qid = int32(hi.q.ID())
}

// NewFrameComputation implements ppu.FrameListener: the producer rolled
// over to a new frame computation. The edge's frame domain decides whether
// this starts a new domain frame; if so, a header carrying the domain
// frame ID is inserted into the stream.
//
//hotpath:entry
func (hi *HeaderInserter) NewFrameComputation(uint32) {
	// The domain counter is the HI's redundant active-fc (§5.4); the
	// core-provided value is not needed because the domain counts the
	// same reliable events.
	id, started := hi.domain.advance()
	if !started {
		return
	}
	// prepare-header: read-then-increment active-fc, set header bit
	// (Table 3); compute-ECC for the header word at the backend's price.
	hi.ops.FSMCounter++
	hi.ops.HeaderBit++
	hi.ops.ECC += hi.encOps
	hi.trace.HIHeader(hi.qid, id)
	hi.q.Push(queue.EncodeHeader(hi.coder, id))
	hi.stats.HeadersInserted++
}

// EndOfComputation implements ppu.FrameListener: the thread's outermost
// global scope exited, so the special end-of-computation frame ID is
// inserted (§4.1) and the queue is flushed so trailing data reaches the
// consumer.
func (hi *HeaderInserter) EndOfComputation() {
	hi.ops.FSMCounter++
	hi.ops.HeaderBit++
	hi.ops.ECC += hi.encOps
	hi.trace.HIEOC(hi.qid)
	hi.q.Push(queue.EncodeHeader(hi.coder, queue.EOCHeaderID))
	hi.stats.EOCInserted++
	hi.q.Flush()
}

// Ops returns the suboperation counters.
func (hi *HeaderInserter) Ops() OpCounters { return hi.ops }

// Stats returns the insertion counters.
func (hi *HeaderInserter) Stats() HIStats { return hi.stats }
