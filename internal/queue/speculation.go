package queue

import "fmt"

// Speculation support (§5.3). The paper's chosen design (option ii) keeps
// speculative copies of the local working-set pointers in the QIT:
// speculatively executed push/pop instructions only update the speculative
// copies, and instruction commit makes them architecturally visible — a
// mis-speculated branch rolls the copies back without touching the queue.
//
// SpecProducer and SpecConsumer model exactly that: a bounded window of
// in-flight (uncommitted) operations per endpoint, sized like a pipeline's
// store buffer. The speculative storage this adds per queue is one
// pointer copy (§5.5 counts it in the ~82 B budget).

// SpecProducer wraps a queue's producer side with speculative pushes.
type SpecProducer struct {
	q       *Queue
	pending []Unit
	depth   int
}

// NewSpecProducer creates a speculative producer window of the given depth
// (the number of pushes that can be in flight before the pipeline would
// stall; typical pipeline depths are tens of instructions).
func NewSpecProducer(q *Queue, depth int) (*SpecProducer, error) {
	if depth < 1 {
		return nil, fmt.Errorf("queue: speculation depth must be >= 1, got %d", depth)
	}
	return &SpecProducer{q: q, depth: depth}, nil
}

// Push buffers one speculative push. If the window is full the oldest
// entries are committed first (the pipeline stalls until the head
// instruction retires).
func (p *SpecProducer) Push(u Unit) {
	if len(p.pending) >= p.depth {
		p.CommitOldest(1)
	}
	p.pending = append(p.pending, u)
}

// InFlight reports the number of uncommitted pushes.
func (p *SpecProducer) InFlight() int { return len(p.pending) }

// CommitOldest retires the n oldest speculative pushes into the queue.
func (p *SpecProducer) CommitOldest(n int) {
	if n > len(p.pending) {
		n = len(p.pending)
	}
	for i := 0; i < n; i++ {
		p.q.Push(p.pending[i])
	}
	p.pending = p.pending[n:]
}

// CommitAll retires every in-flight push.
func (p *SpecProducer) CommitAll() { p.CommitOldest(len(p.pending)) }

// Abort squashes the n newest speculative pushes (a mis-speculated branch:
// the wrong-path stores never become visible).
func (p *SpecProducer) Abort(n int) {
	if n > len(p.pending) {
		n = len(p.pending)
	}
	p.pending = p.pending[:len(p.pending)-n]
}

// SpecConsumer wraps a queue's consumer side with speculative pops: the
// speculative local head pointer advances without altering the visible
// queue state; commit replays the pops architecturally.
type SpecConsumer struct {
	q     *Queue
	ahead int
	depth int
}

// NewSpecConsumer creates a speculative consumer window.
func NewSpecConsumer(q *Queue, depth int) (*SpecConsumer, error) {
	if depth < 1 {
		return nil, fmt.Errorf("queue: speculation depth must be >= 1, got %d", depth)
	}
	return &SpecConsumer{q: q, depth: depth}, nil
}

// Pop speculatively reads the next unread unit. It fails (ok=false) when
// the unit is not yet published — a speculative pop never blocks, the
// pipeline would replay it — or when the window is full.
func (c *SpecConsumer) Pop() (Unit, bool) {
	if c.ahead >= c.depth {
		return 0, false
	}
	u, ok := c.q.PeekAt(c.ahead)
	if !ok {
		return 0, false
	}
	c.ahead++
	return u, true
}

// InFlight reports the number of uncommitted pops.
func (c *SpecConsumer) InFlight() int { return c.ahead }

// CommitOldest retires the n oldest speculative pops, making the
// consumption architecturally visible.
func (c *SpecConsumer) CommitOldest(n int) {
	if n > c.ahead {
		n = c.ahead
	}
	for i := 0; i < n; i++ {
		c.q.Pop()
	}
	c.ahead -= n
}

// CommitAll retires every in-flight pop.
func (c *SpecConsumer) CommitAll() { c.CommitOldest(c.ahead) }

// Abort squashes all speculative pops: the speculative pointer copy is
// discarded and the visible head pointer is untouched.
func (c *SpecConsumer) Abort() { c.ahead = 0 }

// PeekAt returns the k-th unread published unit without consuming it
// (k = 0 is what Pop would return next). ok is false if fewer than k+1
// units are published. It never blocks. Like canDrain, it pays one shared
// ECC pointer access for the filled-pointer refresh, at the same Table 3
// price.
//
//queue:side consumer
func (q *Queue) PeekAt(k int) (Unit, bool) {
	f := q.refreshFilled()
	kk := uint32(k)
	wsCount := uint32(q.cfg.WorkingSets)
	s := uint32(q.cfg.WorkingSetUnits)
	consWS := q.consWS
	offset := uint32(q.consOffset.load(q.plain))
	for ws := consWS; int32(f-ws) > 0 && ws-consWS < wsCount; ws++ {
		l := uint32(q.wsLen[ws%wsCount].load(q.plain))
		if l > offset {
			avail := l - offset
			if kk < avail {
				return Unit(q.buf[(ws%wsCount)*s+(offset+kk)%s].load(q.plain)), true
			}
			kk -= avail
		}
		offset = 0
	}
	return 0, false
}
