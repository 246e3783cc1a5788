package stream

import (
	"commguard/internal/ppu"
	"commguard/internal/queue"
)

// OutPort is the producer endpoint of one edge as seen by a node thread.
type OutPort interface {
	// PushN transmits a firing's items in order, in one transit call.
	PushN(vs []uint32)
	// End is called once when the producer thread's computation finished:
	// implementations flush any buffered working set and close the queue.
	End()
}

// InPort is the consumer endpoint of one edge as seen by a node thread.
type InPort interface {
	// PopN fills dst with the edge's next len(dst) items, in one transit
	// call. Implementations must always fill all of dst (the engine
	// guarantees bounded firings, so a blocking pop that can never be
	// satisfied must resolve via timeout and substitute a value).
	PopN(dst []uint32)
}

// Transport wires one edge of the graph into producer/consumer endpoints.
// The PPU cores of the two endpoint threads are provided so protection
// modules (CommGuard's HI and AM) can subscribe to frame-progress events.
// Wire also returns the raw queue underlying the edge so the engine can
// account its statistics and target it with queue-management faults.
// The run owns every queue Wire returns: the engine releases it
// (queue.Queue.Release) when the run ends, so nothing may keep using the
// queue afterwards, except its Stats, ID, Capacity and Coder.
type Transport interface {
	Wire(e *Edge, prod, cons *ppu.Core) (OutPort, InPort, *queue.Queue, error)
}

// PlainTransport connects edges through bare queues with no CommGuard
// modules: items travel as raw data units and nobody checks alignment.
// With Queue.ProtectPointers=false this is the software queue of Fig. 3b;
// with true it is the reliable-queue-only configuration of Fig. 3c.
type PlainTransport struct {
	Queue queue.Config
}

// Wire implements Transport.
func (t *PlainTransport) Wire(e *Edge, prod, cons *ppu.Core) (OutPort, InPort, *queue.Queue, error) {
	q, err := queue.New(e.ID, t.Queue)
	if err != nil {
		return nil, nil, nil, err
	}
	return &plainOut{q: q}, &plainIn{q: q}, q, nil
}

type plainOut struct{ q *queue.Queue }

// PushN transmits a whole firing's items in one unguarded-transit call.
//
//hotpath:entry
func (p *plainOut) PushN(vs []uint32) { p.q.PushDataN(vs) }

func (p *plainOut) End() {
	p.q.Flush()
	p.q.Close()
}

type plainIn struct{ q *queue.Queue }

// PopN fills dst from unguarded transit: data payloads stream through
// batch transit and the batch resumes past two exceptions. A failed pop
// (timeout, or closed and drained) reads as 0, since the thread still
// needs a value (§5.1: "A timeout may cause incorrect data to be
// transmitted"). A header is consumed as data: a plain consumer has no
// notion of headers, and plain transports have no HI, so this only
// happens in hand-built tests.
//
//hotpath:entry
func (p *plainIn) PopN(dst []uint32) {
	i := 0
	for i < len(dst) {
		n, stop := p.q.PopDataN(dst[i:])
		i += n
		if i >= len(dst) {
			break
		}
		switch stop {
		case queue.PopStopHeader:
			if u, ok := p.q.Pop(); ok {
				dst[i] = u.Payload()
			} else {
				dst[i] = 0
			}
			i++
		case queue.PopStopFail:
			dst[i] = 0
			i++
		}
	}
}
