package commguard

import (
	"sync"

	"commguard/internal/ppu"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

// MarkerTransport is an ablation of CommGuard: frame boundaries are marked
// in-band, but the markers carry no frame IDs. A marker-only checker can
// repair *item-granularity* misalignments (extra or missing items inside a
// frame) exactly like the AM, but it cannot tell a duplicated frame from
// the next frame or detect a wholly lost frame — AE_F(E|L) errors shift
// the stream permanently. CommGuard's header IDs exist precisely to close
// that gap (§3: "CommGuard draws inspiration from reliability solutions in
// data networking and uses headers and frame IDs to identify frames").
//
// TestMarkerOnlyCheckerFailsOnFrameReplay pins the resulting gap: after a
// frame replay the marker-only stream stays one frame behind, while the
// AM realigns.
type MarkerTransport struct {
	// Queue is the queue geometry (pointers are protected, like the QM).
	Queue queue.Config
	// Pad is the value substituted for lost data.
	Pad uint32

	mu  sync.Mutex
	ams []*markerAM
}

// NewMarkerTransport creates the ablation transport.
func NewMarkerTransport(qcfg queue.Config) *MarkerTransport {
	qcfg.ProtectPointers = true
	return &MarkerTransport{Queue: qcfg}
}

// Wire implements stream.Transport.
func (t *MarkerTransport) Wire(e *stream.Edge, prod, cons *ppu.Core) (stream.OutPort, stream.InPort, *queue.Queue, error) {
	qcfg := t.Queue
	qcfg.ProtectPointers = true
	q, err := queue.New(e.ID, qcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	hi := &markerHI{q: q}
	prod.Subscribe(hi)
	am := &markerAM{q: q, pad: t.Pad}
	cons.Subscribe(am)
	t.mu.Lock()
	t.ams = append(t.ams, am)
	t.mu.Unlock()
	return &guardedOut{q: q}, am, q, nil
}

// Stats aggregates the marker checkers' realignment counters.
func (t *MarkerTransport) Stats() AMStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s AMStats
	for _, am := range t.ams {
		s.PaddedItems += am.pads
		s.DiscardedItems += am.discards
		s.TimeoutPads += am.timeoutPads
	}
	return s
}

// markerHI inserts an anonymous (ID-less) marker at every frame boundary.
type markerHI struct {
	q *queue.Queue
}

func (hi *markerHI) NewFrameComputation(uint32) {
	hi.q.Push(queue.HeaderUnit(0))
}

func (hi *markerHI) EndOfComputation() {
	hi.q.Push(queue.HeaderUnit(queue.EOCHeaderID))
	hi.q.Flush()
}

// markerAM is the marker-only alignment checker.
type markerAM struct {
	q   *queue.Queue
	pad uint32

	// States: 0 = receiving, 1 = expecting marker, 2 = discarding to
	// marker, 3 = padding until next frame computation, 4 = end.
	state int

	pads        uint64
	discards    uint64
	timeoutPads uint64
}

const (
	mRcv = iota
	mExp
	mDisc
	mPdg
	mEnd
)

func (am *markerAM) NewFrameComputation(uint32) {
	switch am.state {
	case mRcv:
		am.state = mExp
	case mPdg:
		// Without IDs the checker cannot know which frame the queue is
		// at; it can only resume and hope (the ablation's weakness).
		am.state = mExp
	}
}

func (am *markerAM) EndOfComputation() {}

// Pop implements stream.InPort.
func (am *markerAM) Pop() uint32 {
	for spins := 0; spins < 1<<20; spins++ {
		switch am.state {
		case mPdg, mEnd:
			am.pads++
			return am.pad
		}
		u, ok := am.q.Pop()
		if !ok {
			am.timeoutPads++
			am.pads++
			return am.pad
		}
		if u.IsHeader() {
			if id, _ := u.HeaderID(); id == queue.EOCHeaderID {
				am.state = mEnd
				am.pads++
				return am.pad
			}
			switch am.state {
			case mRcv:
				// A marker mid-frame: items were lost; pad out the rest
				// of this frame computation.
				am.state = mPdg
				am.pads++
				return am.pad
			case mExp, mDisc:
				// The expected boundary (or *a* boundary — without IDs
				// they are indistinguishable).
				am.state = mRcv
			}
			continue
		}
		switch am.state {
		case mRcv:
			return u.Payload()
		case mExp:
			am.state = mDisc
			am.discards++
		case mDisc:
			am.discards++
		}
	}
	am.pads++
	return am.pad
}

var _ stream.Transport = (*MarkerTransport)(nil)
