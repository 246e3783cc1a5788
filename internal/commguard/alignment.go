package commguard

import (
	"commguard/internal/ecc"
	"commguard/internal/obs"
	"commguard/internal/queue"
)

// AMState enumerates the Alignment Manager's FSM states (Table 1).
type AMState int

const (
	// RcvCmp: receiving and computing on items for the active frame
	// computation (the normal consuming state).
	RcvCmp AMState = iota
	// ExpHdr: the thread's control flow just rolled over to a new frame
	// computation and the next unit from the queue must be its header.
	ExpHdr
	// DiscFr: discarding whole frames from the queue (AE_FE) until the
	// header matching the active frame computation appears.
	DiscFr
	// Disc: discarding items and frames from the queue (AE_IE, AE_FE)
	// after stale data appeared mid-frame, until a future header appears.
	Disc
	// Pdg: padding the thread for lost data (AE_IL, AE_FL): pops are
	// answered with the pad value until the thread's frame computation
	// catches up with the pending header.
	Pdg
)

func (s AMState) String() string {
	switch s {
	case RcvCmp:
		return "RcvCmp"
	case ExpHdr:
		return "ExpHdr"
	case DiscFr:
		return "DiscFr"
	case Disc:
		return "Disc"
	case Pdg:
		return "Pdg"
	}
	return "invalid"
}

// AMStats records the Alignment Manager's realignment activity. Padded and
// discarded item counts are the data-loss numerators of Fig. 8; realignment
// events annotate outputs like Fig. 7.
type AMStats struct {
	// ItemsDelivered counts regular items handed to the thread.
	ItemsDelivered uint64
	// PaddedItems counts pops answered with the pad value.
	PaddedItems uint64
	// DiscardedItems counts units (items and stale headers) consumed from
	// the queue and dropped during realignment.
	DiscardedItems uint64
	// TimeoutPads counts pops padded because the Queue Manager timed out.
	TimeoutPads uint64
	// Realignments counts transitions back into RcvCmp after an erroneous
	// state (each corresponds to one pad/discard arrow of Fig. 7).
	Realignments uint64
	// UncorrectableHeaders counts headers whose ECC flagged double errors;
	// they are dropped like items.
	UncorrectableHeaders uint64
	// StateEntries[s] counts entries into state s.
	StateEntries [5]uint64
}

// DataLossItems returns the realignment data loss in items (padded +
// discarded), the quantity Fig. 8 reports as a ratio to accepted data.
func (s AMStats) DataLossItems() uint64 { return s.PaddedItems + s.DiscardedItems }

// AlignmentManager is the consumer-side CommGuard module (§4.2). It
// subscribes to the consumer core's frame-progress events and mediates
// every pop the thread issues on its queue.
type AlignmentManager struct {
	q      *queue.Queue
	pad    uint32
	domain frameDomain

	state      AMState
	activeFC   uint32
	started    bool
	pendingHdr uint32 // header that Pdg waits for
	eocSeen    bool   // producer signalled end of computation

	// expHdr is the header unit of the active frame, encoded whenever
	// activeFC moves, which PopN compares bit for bit with the next unit
	// in ExpHdr (see PopN).
	expHdr queue.Unit

	// maxSpin bounds the internal pop-discard loop of a single thread pop
	// (defensive; realignment normally completes within one frame).
	maxSpin int

	// trace records FSM transitions into the consumer core's ring (nil =
	// off); trigger carries the frame ID of the event that caused the
	// transition being recorded (header FC, or active-fc for item/rollover
	// triggered ones).
	trace   *obs.Ring
	qid     int32
	trigger uint32
	// quiet is the highest state setState leaves without the full
	// transition: ExpHdr, or -1 (none) while tracing.
	quiet AMState

	// det measures fault→detection latency (nil = off): Observe polls the
	// watched cores' fault markers per pop (per contiguous span on the
	// batch path), and every entry into an erroneous FSM state before EOC
	// counts as this scheme's detection event.
	det *obs.Detector

	// coder is the queue's ECC backend, resolved once at construction;
	// decOps is its per-header check-ECC price (CostModel.HeaderDecodeOps).
	coder  ecc.Coder
	decOps uint64

	ops   OpCounters
	stats AMStats
}

// NewAlignmentManager creates the AM for one incoming queue with the
// application-wide frame definition (domain scale 1). pad is the value
// substituted for lost data ("padding items fills data frames with
// arbitrary values", §1; zero is the natural choice and what Table 2's
// "FSM in Pdg responds to the request with a 0" prescribes).
func NewAlignmentManager(q *queue.Queue, pad uint32) *AlignmentManager {
	return NewAlignmentManagerScaled(q, pad, 1)
}

// NewAlignmentManagerScaled creates an AM whose edge belongs to a frame
// domain covering scale frame computations per frame (§5.4); it must match
// the producer side's scale.
func NewAlignmentManagerScaled(q *queue.Queue, pad uint32, scale int) *AlignmentManager {
	c := q.Coder()
	return &AlignmentManager{
		q: q, pad: pad, domain: newFrameDomain(scale), state: RcvCmp, quiet: ExpHdr, maxSpin: 1 << 20,
		coder: c, decOps: c.Cost().HeaderDecodeOps,
	}
}

// SetTrace attaches the consumer core's event ring; every FSM transition
// is recorded with the frame ID that triggered it (nil disables tracing).
func (am *AlignmentManager) SetTrace(r *obs.Ring) {
	am.trace = r
	am.qid = int32(am.q.ID())
	am.quiet = ExpHdr
	if r != nil {
		am.quiet = -1
	}
}

// SetDetector attaches the fault→detection latency detector (nil
// disables measurement). The detector belongs to the consumer goroutine,
// like the AM itself.
func (am *AlignmentManager) SetDetector(d *obs.Detector) {
	am.det = d
}

// State exposes the current FSM state (for tests and diagnostics).
func (am *AlignmentManager) State() AMState { return am.state }

// ActiveFC returns the consumer-side frame counter the AM tracks.
func (am *AlignmentManager) ActiveFC() uint32 { return am.activeFC }

func (am *AlignmentManager) setState(s AMState) {
	// The ordinary frame rollover between RcvCmp (0) and ExpHdr (1) only
	// counts the entry; a transition into or out of DiscFr, Disc or Pdg
	// (2..4), and any traced one, takes transition.
	if s|am.state > am.quiet {
		am.transition(s)
		return
	}
	am.state = s
	am.stats.StateEntries[s]++
}

// transition is setState's full form.
func (am *AlignmentManager) transition(s AMState) {
	// Returning to normal delivery from an *erroneous* state is one
	// realignment event (ExpHdr -> RcvCmp is the ordinary frame rollover).
	if s == RcvCmp && (am.state == Disc || am.state == DiscFr || am.state == Pdg) {
		am.stats.Realignments++
	}
	// Entering an erroneous state is this scheme's detection event: the
	// moment the FSM concludes the stream is misaligned. Pdg entries after
	// the producer's EOC are normal termination, not detection (eocSeen is
	// set before that transition).
	if !am.eocSeen && (s == Disc || s == DiscFr || s == Pdg) {
		am.det.Detect(am.stats.ItemsDelivered)
	}
	am.trace.AMTransition(am.qid, uint8(am.state), uint8(s), am.activeFC, am.trigger)
	am.state = s
	am.stats.StateEntries[s]++
}

// NewFrameComputation implements ppu.FrameListener: the consumer thread
// started a new frame computation (Table 1 events "New frame computation
// started" and "New frame computation matched header"). The edge's frame
// domain — the AM's redundant active-fc (§5.4) — decides whether a new
// domain frame starts here.
//
//hotpath:entry
func (am *AlignmentManager) NewFrameComputation(uint32) {
	fc, startedFrame := am.domain.advance()
	if !startedFrame {
		return
	}
	am.ops.FSMCounter++
	am.activeFC = fc
	am.expHdr = queue.EncodeHeader(am.coder, fc)
	am.trigger = fc
	if !am.started {
		am.started = true
		am.setState(ExpHdr)
		return
	}
	switch am.state {
	case RcvCmp:
		am.setState(ExpHdr)
	case Pdg:
		if !am.eocSeen && !serialBefore(fc, am.pendingHdr) {
			am.setState(RcvCmp)
		}
	default:
		// Disc/DiscFr/ExpHdr: Table 1 defines no transition; the scan for
		// the (now updated) active frame continues.
	}
}

// EndOfComputation implements ppu.FrameListener on the consumer core; the
// consumer's own completion needs no AM action.
func (am *AlignmentManager) EndOfComputation() {}

// Pop mediates one pop instruction of the consumer thread (Table 2): the
// FSM is checked, the Queue Manager is invoked unless the FSM pads, and
// discarding continues until the FSM settles ("while FSM not DONE").
//
//hotpath:entry
func (am *AlignmentManager) Pop() uint32 {
	am.det.Observe(am.stats.ItemsDelivered)
	am.ops.FSMCounter++ // FSM-check for the pop event
	for spin := 0; spin < am.maxSpin; spin++ {
		if am.state == Pdg {
			am.stats.PaddedItems++
			return am.pad
		}
		u, ok := am.q.Pop()
		if !ok {
			// Queue Manager timeout or closed-and-drained queue: answer
			// the pop with the pad value; the FSM state is unchanged so
			// realignment resumes if data reappears.
			am.stats.TimeoutPads++
			am.stats.PaddedItems++
			return am.pad
		}
		am.ops.HeaderBit++ // is-header check on every unit
		if !u.IsHeader() {
			if am.deliverItem() {
				am.stats.ItemsDelivered++
				return u.Payload()
			}
			am.stats.DiscardedItems++
			continue
		}
		am.ops.ECC += am.decOps // check-ECC for header, at the backend's price
		id, res := u.DecodeHeader(am.coder)
		if res == ecc.Uncorrectable {
			// A destroyed header is just a garbage unit: drop it.
			am.stats.UncorrectableHeaders++
			am.stats.DiscardedItems++
			continue
		}
		am.ops.FSMCounter++ // FSM-check/update on the header event
		am.onHeader(id)
	}
	// The spin bound only trips under pathological schedules; treat as
	// padding so the thread keeps its guaranteed progress.
	am.stats.PaddedItems++
	return am.pad
}

// PopN mediates len(dst) consecutive pop instructions, filling dst with
// what the same number of Pop calls would deliver. While the FSM sits in
// RcvCmp — the steady state between frame boundaries — items stream
// through the Queue Manager's batch transit in one call per contiguous
// span. In ExpHdr the next unit is compared bit for bit with the active
// frame's header (expHdr); a match is taken as the ExpHdr -> RcvCmp
// rollover without a decode, since a clean codeword decodes to exactly
// the ID it encodes. Any other unit, a timeout, or any other state takes
// the per-item FSM path, so realignment behavior and every counter
// (OpCounters, AMStats, queue.Stats) and trace event match per-item
// popping exactly.
//
//hotpath:entry
func (am *AlignmentManager) PopN(dst []uint32) {
	i := 0
	for i < len(dst) {
		if am.state == ExpHdr && am.activeFC != queue.EOCHeaderID {
			// The EOC ID aliases the last wire frame ID (domain.go); that
			// header must reach onHeader, which ends the computation.
			am.det.Observe(am.stats.ItemsDelivered)
			took, ok := am.q.PopIf(am.expHdr)
			switch {
			case took:
				// Booked as Pop books a header that decodes to activeFC in
				// ExpHdr: the header-bit check, the check-ECC, the FSM header
				// event and the rollover into RcvCmp. The pop event belongs
				// to the unit that follows, which the loop pops next, as
				// Pop's own loop does.
				am.ops.HeaderBit++
				am.ops.ECC += am.decOps
				am.ops.FSMCounter++
				am.trigger = am.activeFC
				am.setState(RcvCmp)
				continue
			case !ok:
				dst[i] = am.timeoutPad()
				i++
				continue
			}
		}
		if am.state != RcvCmp {
			dst[i] = am.Pop()
			i++
			continue
		}
		am.det.Observe(am.stats.ItemsDelivered)
		n, stop := am.q.PopDataN(dst[i:])
		if n > 0 {
			// Per delivered item the per-item path costs one FSM check for
			// the pop event and one header-bit check on the unit.
			am.ops.FSMCounter += uint64(n)
			am.ops.HeaderBit += uint64(n)
			am.stats.ItemsDelivered += uint64(n)
			i += n
		}
		if i >= len(dst) {
			break
		}
		switch stop {
		case queue.PopStopHeader:
			// The header is still in the queue; one per-item Pop runs the
			// full FSM (header event, possible realignment) for it.
			dst[i] = am.Pop()
			i++
		case queue.PopStopFail:
			dst[i] = am.timeoutPad()
			i++
		}
	}
}

// timeoutPad answers one timed-out pop with one pad, as Pop does: the
// pop event is checked, the FSM state is unchanged.
func (am *AlignmentManager) timeoutPad() uint32 {
	am.ops.FSMCounter++
	am.stats.TimeoutPads++
	am.stats.PaddedItems++
	return am.pad
}

// deliverItem decides what a regular item does in the current state:
// deliver (true) or discard (false), per Table 1.
func (am *AlignmentManager) deliverItem() bool {
	switch am.state {
	case RcvCmp:
		return true
	case ExpHdr:
		// "Received item or past header -> DiscFr": the expected header is
		// missing, so the queue is behind by at least part of a frame. The
		// trigger is the active frame whose header failed to appear.
		am.trigger = am.activeFC
		am.setState(DiscFr)
		return false
	default: // DiscFr, Disc
		return false
	}
}

// onHeader applies Table 1's header transitions. id has been ECC-checked.
func (am *AlignmentManager) onHeader(id uint32) {
	am.trigger = id
	if id == queue.EOCHeaderID {
		// Producer finished: everything the thread still pops is padding.
		am.eocSeen = true
		am.setState(Pdg)
		return
	}
	switch am.state {
	case RcvCmp:
		if am.isFuture(id) {
			// Items were lost; the queue is already at a future frame.
			am.pendingHdr = id
			am.setState(Pdg)
		} else {
			// A past (or duplicate-current) header mid-frame: stale data
			// follows; discard items and frames until the stream passes
			// the active frame.
			am.setState(Disc)
		}
	case ExpHdr:
		switch {
		case id == am.activeFC:
			am.setState(RcvCmp)
		case am.isFuture(id):
			am.pendingHdr = id
			am.setState(Pdg)
		default:
			am.setState(DiscFr)
		}
	case DiscFr:
		switch {
		case id == am.activeFC:
			am.setState(RcvCmp)
		case am.isFuture(id):
			am.pendingHdr = id
			am.setState(Pdg)
		default:
			am.stats.DiscardedItems++ // stale header dropped with its frame
		}
	case Disc:
		if am.isFuture(id) {
			am.pendingHdr = id
			am.setState(Pdg)
		} else {
			am.stats.DiscardedItems++
		}
	}
}

// isFuture reports whether header id is ahead of the active frame
// computation. The comparison uses serial-number arithmetic (RFC 1982
// style): the 32-bit wire frame ID wraps mod 2^32 on very long runs
// (domain.go), and both endpoints wrap in lockstep, so any genuine
// misalignment is far smaller than half the counter space and the signed
// difference orders the IDs correctly across the wrap.
func (am *AlignmentManager) isFuture(id uint32) bool {
	return int32(id-am.activeFC) > 0
}

// serialBefore reports a < b in wraparound-aware serial-number order.
func serialBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Ops returns the suboperation counters.
func (am *AlignmentManager) Ops() OpCounters { return am.ops }

// Stats returns the realignment counters.
func (am *AlignmentManager) Stats() AMStats { return am.stats }
