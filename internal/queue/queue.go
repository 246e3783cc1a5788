package queue

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"commguard/internal/ecc"
	"commguard/internal/obs"
	"commguard/internal/obs/hist"
)

// Config describes the geometry and protection level of one queue.
type Config struct {
	// WorkingSets is the number of sub-regions the queue memory is divided
	// into (the paper uses 8 over a 320KB region).
	WorkingSets int
	// WorkingSetUnits is the number of word-sized units per working set.
	WorkingSetUnits int
	// ProtectPointers enables ECC protection of the shared working-set
	// head/tail pointers (the reliable queue of §4.3). Without it, the
	// queue models the plain software queue whose management state is
	// corruptible (queue-management errors, §3).
	ProtectPointers bool
	// Coder selects the ECC backend protecting shared pointers and frame
	// headers (ecc.ParseCoder spec: "hamming", "ldpc", "ldpc-N-WC-WR").
	// Empty means hamming, the paper's (39,32) SEC-DED code; omitted
	// from serialization when empty so pre-existing obs.ConfigHash
	// values are unchanged.
	Coder string `json:",omitempty"`
	// Timeout bounds blocking push/pop operations, as required by §5.1:
	// "the QM needs timeout mechanisms to avoid indefinite blocking. A
	// timeout may cause incorrect data to be transmitted". Zero means
	// block indefinitely; negative values are rejected by Validate.
	Timeout time.Duration
	// Cancel, when non-nil, tears the queue down when closed: blocked
	// pushes and pops — including ones blocking indefinitely inside the
	// §5.1 wait loops — return immediately (pops fail, pushes proceed as
	// on timeout). It exists so a run-level watchdog can cancel a wedged
	// simulation without leaking the goroutines parked on its queues.
	// Excluded from serialization: a channel identity is per-process and
	// must not perturb config hashes (obs.ConfigHash).
	Cancel <-chan struct{} `json:"-"`
}

// DefaultConfig mirrors the paper's queue structure with geometry scaled to
// our workload sizes (the paper's 320KB/8 regions are sized for minutes of
// media; our streams are seconds).
func DefaultConfig() Config {
	return Config{
		WorkingSets:     8,
		WorkingSetUnits: 256,
		ProtectPointers: true,
		Timeout:         200 * time.Millisecond,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.WorkingSets < 2 {
		return fmt.Errorf("queue: need at least 2 working sets, got %d", c.WorkingSets)
	}
	if c.WorkingSetUnits < 1 {
		return fmt.Errorf("queue: working set must hold at least 1 unit, got %d", c.WorkingSetUnits)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("queue: negative timeout %v (use 0 to block indefinitely)", c.Timeout)
	}
	if _, err := ecc.ParseCoder(c.Coder); err != nil {
		return err
	}
	return nil
}

// coder resolves the configured ECC backend (hamming when unset).
func (c Config) coder() ecc.Coder {
	coder, err := ecc.ParseCoder(c.Coder)
	if err != nil {
		panic(err) // Validate rejected this before construction
	}
	return coder
}

// Stats counts the memory events and protection activity of one queue.
// Item and header loads/stores feed the memory-overhead analysis of
// Fig. 12; pointer ECC operations feed the suboperation accounting of
// Table 3 ("QM-get-new-workset: 10 check/compute-ECC operations").
type Stats struct {
	ItemStores   uint64
	ItemLoads    uint64
	HeaderStores uint64
	HeaderLoads  uint64
	// PointerECCOps counts single-word ECC set/check operations performed
	// for shared working-set pointer exchanges.
	PointerECCOps uint64
	// CorrectedPointerErrors counts shared-pointer corruptions repaired by
	// ECC (only possible when ProtectPointers is set).
	CorrectedPointerErrors uint64
	// PushTimeouts and PopTimeouts count blocking operations that gave up.
	PushTimeouts uint64
	PopTimeouts  uint64
	// ForcedOverwrites counts pushes that proceeded after a timeout,
	// overwriting data the consumer had not drained.
	ForcedOverwrites uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ItemStores += other.ItemStores
	s.ItemLoads += other.ItemLoads
	s.HeaderStores += other.HeaderStores
	s.HeaderLoads += other.HeaderLoads
	s.PointerECCOps += other.PointerECCOps
	s.CorrectedPointerErrors += other.CorrectedPointerErrors
	s.PushTimeouts += other.PushTimeouts
	s.PopTimeouts += other.PopTimeouts
	s.ForcedOverwrites += other.ForcedOverwrites
}

// atomicStats mirrors Stats with atomic counters so the lock-free fast
// path and concurrent diagnostics (Stats, the corruption stress tests)
// never race. Per-item operations touch exactly one of these. The
// producer-written and consumer-written counters live on separate cache
// lines: both sides increment one counter per item, and co-locating them
// would put a coherence miss on every fast-path operation.
type atomicStats struct {
	// Producer-written.
	itemStores       atomic.Uint64
	headerStores     atomic.Uint64
	pushTimeouts     atomic.Uint64
	forcedOverwrites atomic.Uint64
	_                [4]uint64

	// Consumer-written.
	itemLoads   atomic.Uint64
	headerLoads atomic.Uint64
	popTimeouts atomic.Uint64
	_           [5]uint64

	// Written by both sides, only at working-set exchanges.
	pointerECCOps          atomic.Uint64
	correctedPointerErrors atomic.Uint64
}

func (s *atomicStats) snapshot() Stats {
	return Stats{
		ItemStores:             s.itemStores.Load(),
		ItemLoads:              s.itemLoads.Load(),
		HeaderStores:           s.headerStores.Load(),
		HeaderLoads:            s.headerLoads.Load(),
		PointerECCOps:          s.pointerECCOps.Load(),
		CorrectedPointerErrors: s.correctedPointerErrors.Load(),
		PushTimeouts:           s.pushTimeouts.Load(),
		PopTimeouts:            s.popTimeouts.Load(),
		ForcedOverwrites:       s.forcedOverwrites.Load(),
	}
}

// sharedCounter is a free-running counter that is either stored raw
// (corruptible) or as an ECC codeword (single-bit corruptions repaired on
// access). It models the shared working-set pointers of Fig. 6. Access is
// serialized by Queue.mu: the shared pointer exchange is the queue's
// mutexed slow path, entered once per working set, never per item.
type sharedCounter struct {
	protected bool
	coder     ecc.Coder
	raw       uint32
	cw        ecc.Codeword
}

func newSharedCounter(protected bool, coder ecc.Coder) sharedCounter {
	return sharedCounter{protected: protected, coder: coder, cw: coder.Encode(0)}
}

// load reads the counter, correcting single-bit errors when protected.
// It returns the value and the number of corrected errors (0 or 1); a
// correction implies one extra encode (the scrub write-back), which the
// caller charges as CostModel.ScrubOps.
func (c *sharedCounter) load() (uint32, uint64) {
	if !c.protected {
		return c.raw, 0
	}
	v, res := c.coder.Decode(c.cw)
	if res == ecc.Corrected {
		c.cw = c.coder.Encode(v) // scrub (charged as ScrubOps by the caller)
		return v, 1
	}
	return v, 0
}

func (c *sharedCounter) store(v uint32) {
	if !c.protected {
		c.raw = v
		return
	}
	c.cw = c.coder.Encode(v)
}

// corrupt flips one random bit of the stored representation. For protected
// counters the flip lands in the codeword (and will be repaired); for raw
// counters it lands in the value. Flip positions are drawn from the
// backend's codeword width, not a hardwired 39.
func (c *sharedCounter) corrupt(r *rand.Rand) {
	if !c.protected {
		c.raw ^= 1 << uint(r.Intn(32))
		return
	}
	c.cw = c.coder.FlipBit(c.cw, r.Intn(c.coder.Width()))
}

// Queue is a single-producer single-consumer working-set queue.
//
// Producer side: fills the current working set through a local tail offset;
// when the working set is full it is published by advancing the shared
// "filled" pointer (one QM-get-new-workset exchange). Consumer side drains
// published working sets through a local head offset and returns them by
// advancing the shared "drained" pointer. Per-item operations never touch
// the shared pointers, exactly as in the paper ("a 320KB memory region
// divided to 8 sub-regions to avoid per-item access to the head/tail
// pointers").
//
// Concurrency model (the paper's Fig. 6 split, taken literally):
//
//   - The mid-working-set fast path is lock-free. Each side reads and
//     writes only its own local offset and its cached view of the peer's
//     shared pointer; buffer slots and published working-set lengths are
//     atomic words so that even a corrupted raw pointer (the software
//     queue of Fig. 3b) makes the consumer read stale garbage — the
//     modeled failure — rather than a Go data race.
//   - The shared filled/drained exchanges remain serialized by mu and pay
//     the ECC suboperation costs of Table 3. They run once per working
//     set, so the mutex is off the per-item path entirely.
//   - Blocking uses one wake channel per side (capacity 1) plus a
//     reusable per-side timer: a consumer timeout can never wake a
//     blocked producer (and vice versa), and a timed wait allocates
//     nothing after the first one.
type Queue struct {
	id  int
	cfg Config

	// coder is the resolved ECC backend; cost carries its Table 3
	// suboperation prices, copied out once at construction so the
	// accounting sites below never dispatch through the interface.
	// Both are immutable after New, like cfg.
	coder ecc.Coder
	cost  ecc.CostModel

	// mu guards the shared working-set pointers (filled/drained). It is
	// the working-set-exchange slow path; per-item operations do not take
	// it. The //queue: annotations below declare the concurrency
	// discipline of each field; internal/soundness verifies every method
	// against them (CS010–CS012).
	mu      sync.Mutex    //queue:lock
	filled  sharedCounter //queue:shared
	drained sharedCounter //queue:shared

	buf   []atomic.Uint64 // Unit values //queue:shared-atomic
	wsLen []atomic.Uint32 // published length of each working set slot //queue:shared-atomic

	closed      atomic.Bool //queue:owned-by producer
	nonBlocking atomic.Bool //queue:shared-atomic

	// notFull wakes the producer (sent by the consumer when it returns a
	// working set); notEmpty wakes the consumer (sent by the producer when
	// it publishes one). Capacity 1: SPSC has at most one waiter per side.
	notFull  chan struct{}
	notEmpty chan struct{}

	// prodTimer/consTimer are reused across timed waits of their side.
	prodTimer *time.Timer //queue:owned-by producer
	consTimer *time.Timer //queue:owned-by consumer

	// Producer-local state (reliable: lives in CommGuard's QIT when
	// CommGuard is present; register-resident otherwise and corruptible
	// via CorruptLocalOffset). Atomic so injected corruption and
	// diagnostics are race-free; only the producer stores to them.
	// Each side's per-item state is padded onto its own cache line:
	// prodOffset and consOffset are both stored once per item, and
	// sharing a line would ping-pong it between the two cores.
	//
	// cachedDrained/cachedFilled are each side's view of the other side's
	// shared pointer. Per-item operations compare against the cached view
	// and only perform a shared (ECC) pointer access when the view is
	// exhausted, preserving the paper's "avoid per-item access to the
	// head/tail pointers" design (Fig. 6).
	//
	// pushStreak/popStreak are the starvation backoff: each consecutive
	// timeout halves the next blocking budget (down to a floor), so a
	// persistently corrupted or starved queue degrades to fast garbage
	// delivery instead of serializing full timeouts per item, while a
	// transiently slow peer still gets real waiting time.
	// prodWSIdx/prodBase (and the consumer twins) cache ws%k and
	// (ws%k)*s for the working set currently in use; they change only at
	// publish/return, sparing the per-item path two integer divisions.
	_             [64]byte
	prodOffset    atomic.Uint32 //queue:owned-by producer
	prodWS        atomic.Uint32 // working set currently being filled //queue:owned-by producer
	prodWSIdx     uint32        // prodWS % WorkingSets //queue:owned-by producer
	prodBase      uint32        // prodWSIdx * WorkingSetUnits //queue:owned-by producer
	cachedDrained uint32        // producer's view of the consumer's progress //queue:owned-by producer
	pushStreak    uint32        //queue:owned-by producer
	_             [40]byte

	// Consumer-local state.
	consOffset   atomic.Uint32 //queue:owned-by consumer
	consWS       atomic.Uint32 // working set currently being drained //queue:owned-by consumer
	consWSIdx    uint32        // consWS % WorkingSets //queue:owned-by consumer
	consBase     uint32        // consWSIdx * WorkingSetUnits //queue:owned-by consumer
	cachedFilled uint32        // consumer's view of the producer's progress //queue:owned-by consumer
	popStreak    uint32        //queue:owned-by consumer
	_            [40]byte

	stats atomicStats //queue:counters

	// traceProd/traceCons record this queue's slow-path events (working-set
	// publish/return, timeouts) into the owning side's core ring. Nil when
	// tracing is off; every emit sits on a slow path, never per item.
	traceProd *obs.Ring //queue:owned-by producer
	traceCons *obs.Ring //queue:owned-by consumer

	// Latency shards (nil when health recording is off). Wait shards
	// record time spent blocked in the acquire funnels — entered only
	// after the cached peer view says no slot is available, so the
	// lock-free per-item fast path never reads the clock. The
	// publish/return shards time the mutexed ECC pointer exchanges. Each
	// shard belongs to the side that writes it, like the rings above.
	hPushWait *hist.Shard //queue:owned-by producer
	hPublish  *hist.Shard //queue:owned-by producer
	hPopWait  *hist.Shard //queue:owned-by consumer
	hReturn   *hist.Shard //queue:owned-by consumer
}

// backoffFloor is the minimum blocking budget under repeated starvation.
const backoffFloor = 50 * time.Microsecond

// budget halves the timeout per consecutive starvation event.
func budget(timeout time.Duration, streak uint32) time.Duration {
	if timeout <= 0 {
		return 0 // block forever; never degrade
	}
	if streak > 12 {
		streak = 12
	}
	d := timeout >> streak
	if d < backoffFloor {
		d = backoffFloor
	}
	return d
}

// New creates a queue with the given identifier (the QID used by CommGuard's
// Queue Information Table) and configuration.
func New(id int, cfg Config) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	coder := cfg.coder()
	q := &Queue{
		id:       id,
		cfg:      cfg,
		coder:    coder,
		cost:     coder.Cost(),
		buf:      make([]atomic.Uint64, cfg.WorkingSets*cfg.WorkingSetUnits),
		wsLen:    make([]atomic.Uint32, cfg.WorkingSets),
		filled:   newSharedCounter(cfg.ProtectPointers, coder),
		drained:  newSharedCounter(cfg.ProtectPointers, coder),
		notFull:  make(chan struct{}, 1),
		notEmpty: make(chan struct{}, 1),
	}
	return q, nil
}

// MustNew is New for known-good configurations.
func MustNew(id int, cfg Config) *Queue {
	q, err := New(id, cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// ID returns the queue identifier.
func (q *Queue) ID() int { return q.id }

// Coder returns the queue's resolved ECC backend. CommGuard's HI/AM
// modules use it so header codewords match the queue's pointer
// protection scheme.
func (q *Queue) Coder() ecc.Coder { return q.coder }

// Capacity returns the total units the queue's region holds.
func (q *Queue) Capacity() int { return q.cfg.WorkingSets * q.cfg.WorkingSetUnits }

// SetTrace attaches the producer-side and consumer-side event rings. Call
// before transit starts; either ring may be nil (that side untraced).
//
//queue:side init
func (q *Queue) SetTrace(prod, cons *obs.Ring) {
	q.traceProd = prod
	q.traceCons = cons
}

// SetLatency attaches the slow-path latency shards (obs.Health's
// QueueShards order: producer-side push-wait and publish, consumer-side
// pop-wait and return). Call before transit starts; any shard may be nil
// (that measurement disabled at one branch per slow-path entry).
//
//queue:side init
func (q *Queue) SetLatency(pushWait, publish, popWait, ret *hist.Shard) {
	q.hPushWait = pushWait
	q.hPublish = publish
	q.hPopWait = popWait
	q.hReturn = ret
}

// SetNonBlocking makes Pop fail immediately on an empty queue and Push
// overwrite immediately on a full one, instead of waiting for the peer.
// Sequential (statically scheduled) execution uses this: the peer runs on
// the same goroutine, so blocking could never be satisfied.
//
//queue:side init
func (q *Queue) SetNonBlocking(v bool) { q.nonBlocking.Store(v) }

// signal performs a non-blocking send on a capacity-1 wake channel: if the
// peer is waiting it wakes exactly that peer; otherwise the token is kept
// so the peer's next wait returns immediately (no lost wake-up).
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// waitProducer blocks the producer until the consumer signals progress or
// d elapses (d <= 0 blocks indefinitely). The reused timer means a timed
// wait performs no allocation after the first and, unlike the previous
// time.AfterFunc+Broadcast scheme, a timer pop can never wake the other
// side's waiter.
//
//queue:side producer
func (q *Queue) waitProducer(d time.Duration) {
	if d <= 0 {
		select {
		case <-q.notFull:
		case <-q.cfg.Cancel:
		}
		return
	}
	t := q.prodTimer
	if t == nil {
		t = time.NewTimer(d)
		q.prodTimer = t
	} else {
		t.Reset(d)
	}
	select {
	case <-q.notFull:
		if !t.Stop() {
			<-t.C
		}
	case <-q.cfg.Cancel:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
	}
}

// waitConsumer is waitProducer for the consumer side.
//
//queue:side consumer
func (q *Queue) waitConsumer(d time.Duration) {
	if d <= 0 {
		select {
		case <-q.notEmpty:
		case <-q.cfg.Cancel:
		}
		return
	}
	t := q.consTimer
	if t == nil {
		t = time.NewTimer(d)
		q.consTimer = t
	} else {
		t.Reset(d)
	}
	select {
	case <-q.notEmpty:
		if !t.Stop() {
			<-t.C
		}
	case <-q.cfg.Cancel:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
	}
}

// cancelled reports whether the queue's teardown signal has fired. A nil
// Cancel channel never fires (the default: §5.1 timeouts alone bound
// blocking).
func (q *Queue) cancelled() bool {
	select {
	case <-q.cfg.Cancel:
		return true
	default:
		return false
	}
}

// canFill reports whether the producer may start filling its next working
// set. The cached consumer-progress view is refreshed (one shared ECC
// pointer access under mu) only when it says the ring is full.
//
//queue:side producer
func (q *Queue) canFill() bool {
	k := uint32(q.cfg.WorkingSets)
	ws := q.prodWS.Load()
	if ws-q.cachedDrained < k {
		q.pushStreak = 0
		return true
	}
	q.mu.Lock()
	d, c := q.drained.load()
	q.mu.Unlock()
	q.stats.correctedPointerErrors.Add(c)
	q.stats.pointerECCOps.Add(q.cost.RefreshFillOps + c*q.cost.ScrubOps)
	q.cachedDrained = d
	if ws-d < k {
		q.pushStreak = 0
		return true
	}
	return false
}

// acquireFillSlot runs before the first push into a fresh working set: it
// waits (bounded by the timeout budget) for a free working set, and on
// timeout proceeds anyway, overwriting undrained data (§5.1: a timeout may
// cause incorrect data to be transmitted but frame checking still realigns
// at frame boundaries).
//
//queue:side producer
//hotpath:ok working-set exchange slow path: bounded wait + mutexed ECC pointer access (Fig. 6, Table 3)
func (q *Queue) acquireFillSlot() {
	if q.nonBlocking.Load() {
		if !q.canFill() {
			q.stats.pushTimeouts.Add(1)
			q.stats.forcedOverwrites.Add(1)
			q.traceProd.PushTimeout(int32(q.id))
		}
		return
	}
	if q.canFill() {
		return
	}
	// Past this point the producer genuinely waits; the fast path above
	// never reads the clock.
	if q.hPushWait != nil {
		waitStart := time.Now()
		defer func() { q.hPushWait.Record(uint64(time.Since(waitStart))) }()
	}
	wait := budget(q.cfg.Timeout, q.pushStreak)
	var deadline time.Time
	if q.cfg.Timeout > 0 {
		deadline = time.Now().Add(wait)
	}
	for {
		if q.cancelled() {
			// Teardown: proceed like a timeout (the run is being abandoned;
			// overwriting undrained data is harmless) so the producer never
			// parks again.
			return
		}
		if q.cfg.Timeout > 0 {
			now := time.Now()
			if !now.Before(deadline) {
				q.stats.pushTimeouts.Add(1)
				q.stats.forcedOverwrites.Add(1)
				q.pushStreak++
				q.traceProd.PushTimeout(int32(q.id))
				return // proceed, overwriting undrained data
			}
			q.waitProducer(deadline.Sub(now))
		} else {
			q.waitProducer(0)
		}
		if q.canFill() {
			return
		}
	}
}

// Push appends one unit, blocking while the queue is full. If the blocking
// exceeds the configured timeout the push proceeds anyway, overwriting
// undrained data. Mid-working-set pushes are lock-free and touch no shared
// state.
//
//queue:side producer
//hotpath:entry
func (q *Queue) Push(u Unit) {
	// A free working set is only needed when starting one.
	if q.prodOffset.Load() == 0 {
		q.acquireFillSlot()
	}
	s := uint32(q.cfg.WorkingSetUnits)
	off := q.prodOffset.Load()
	idx := off
	if idx >= s { // corrupted offset: wrap like the pre-cache indexing did
		idx = off % s
	}
	q.buf[q.prodBase+idx].Store(uint64(u))
	if u.IsHeader() {
		q.stats.headerStores.Add(1)
	} else {
		q.stats.itemStores.Add(1)
	}
	off++
	q.prodOffset.Store(off)
	if off >= s {
		q.publish(s)
	}
}

// publish hands the current working set to the consumer. This is the
// QM-get-new-workset exchange; per Table 3 it costs 10 single-word ECC
// set/check operations for the shared pointer access under the default
// Hamming backend (CostModel.WorksetExchangeOps in general, plus the
// scrub re-encode when the load corrected a corrupted pointer).
//
//queue:side producer
//hotpath:ok working-set exchange slow path: mutexed ECC pointer swap once per working set (Fig. 6, Table 3)
func (q *Queue) publish(n uint32) {
	var t0 time.Time
	if q.hPublish != nil {
		t0 = time.Now()
	}
	k := uint32(q.cfg.WorkingSets)
	q.wsLen[q.prodWSIdx].Store(n)
	q.traceProd.QueuePublish(int32(q.id), q.prodWS.Load(), n)
	q.mu.Lock()
	f, c := q.filled.load()
	q.filled.store(f + 1)
	q.mu.Unlock()
	q.stats.correctedPointerErrors.Add(c)
	q.stats.pointerECCOps.Add(q.cost.WorksetExchangeOps + c*q.cost.ScrubOps)
	if q.hPublish != nil {
		q.hPublish.Record(uint64(time.Since(t0)))
	}
	q.prodWS.Store(f + 1)
	q.prodWSIdx = (f + 1) % k
	q.prodBase = q.prodWSIdx * uint32(q.cfg.WorkingSetUnits)
	q.prodOffset.Store(0)
	signal(q.notEmpty)
}

// Flush publishes a partially filled working set. The producer calls it
// when its thread's computation ends so trailing items (and the
// end-of-computation header) reach the consumer.
//
//queue:side producer
func (q *Queue) Flush() {
	if n := q.prodOffset.Load(); n > 0 {
		q.publish(n)
	}
}

// Close marks the producer side finished. Blocked and future pops fail
// fast once all published data is drained.
//
//queue:side producer
func (q *Queue) Close() {
	q.closed.Store(true)
	signal(q.notEmpty)
}

// canDrain reports whether the consumer's current working set has been
// published. The cached producer-progress view is refreshed (one shared
// ECC pointer access under mu) only when it is exhausted.
//
//queue:side consumer
func (q *Queue) canDrain() bool {
	ws := q.consWS.Load()
	if int32(q.cachedFilled-ws) > 0 {
		q.popStreak = 0
		return true
	}
	q.mu.Lock()
	f, c := q.filled.load()
	q.mu.Unlock()
	q.stats.correctedPointerErrors.Add(c)
	q.stats.pointerECCOps.Add(q.cost.RefreshDrainOps + c*q.cost.ScrubOps)
	q.cachedFilled = f
	// Comparison is on free-running counters; after a raw-pointer
	// corruption these can disagree wildly — the consumer may see a huge
	// backlog (and read garbage from unwritten slots) or see nothing at
	// all (and time out). That is exactly the failure mode of Fig. 3b;
	// the timeout path bounds the damage.
	if int32(f-ws) > 0 {
		q.popStreak = 0
		return true
	}
	return false
}

// acquireDrainSlot waits (bounded by the timeout budget) until the
// consumer's working set is published. It returns false on timeout or when
// the queue is closed and fully drained.
//
//queue:side consumer
//hotpath:ok working-set exchange slow path: bounded wait + mutexed ECC pointer access (Fig. 6, Table 3)
func (q *Queue) acquireDrainSlot() bool {
	if q.canDrain() {
		return true
	}
	if q.nonBlocking.Load() {
		q.stats.popTimeouts.Add(1)
		q.traceCons.PopTimeout(int32(q.id))
		return false
	}
	// Past this point the consumer genuinely waits; the fast path above
	// never reads the clock.
	if q.hPopWait != nil {
		waitStart := time.Now()
		defer func() { q.hPopWait.Record(uint64(time.Since(waitStart))) }()
	}
	wait := budget(q.cfg.Timeout, q.popStreak)
	var deadline time.Time
	if q.cfg.Timeout > 0 {
		deadline = time.Now().Add(wait)
	}
	for {
		if q.closed.Load() {
			// The producer may have flushed its tail between the last
			// canDrain and Close: drain it before reporting the end.
			return q.canDrain()
		}
		if q.cancelled() {
			// Teardown: fail the pop like a timeout so the consumer (AM or
			// bare thread) substitutes and unwinds instead of blocking.
			return false
		}
		if q.cfg.Timeout > 0 {
			now := time.Now()
			if !now.Before(deadline) {
				q.stats.popTimeouts.Add(1)
				q.popStreak++
				q.traceCons.PopTimeout(int32(q.id))
				return false
			}
			q.waitConsumer(deadline.Sub(now))
		} else {
			q.waitConsumer(0)
		}
		if q.canDrain() {
			return true
		}
	}
}

// Pop removes the next unit, blocking while the queue is empty. ok is
// false if the queue timed out or was closed and fully drained; the caller
// (the Alignment Manager, or a bare thread pop) decides what to substitute.
// Mid-working-set pops are lock-free and touch no shared state.
//
//queue:side consumer
//hotpath:entry
func (q *Queue) Pop() (u Unit, ok bool) {
	if !q.acquireDrainSlot() {
		return 0, false
	}
	s := uint32(q.cfg.WorkingSetUnits)
	off := q.consOffset.Load()
	idx := off
	if idx >= s { // corrupted offset: wrap like the pre-cache indexing did
		idx = off % s
	}
	u = Unit(q.buf[q.consBase+idx].Load())
	if u.IsHeader() {
		q.stats.headerLoads.Add(1)
	} else {
		q.stats.itemLoads.Add(1)
	}
	off++
	q.consOffset.Store(off)
	if off >= q.wsLen[q.consWSIdx].Load() {
		q.returnWS()
	}
	return u, true
}

// returnWS returns the drained working set to the producer (the consumer
// side's shared pointer exchange; 10 ECC suboperations per Table 3 under
// Hamming — CostModel.WorksetExchangeOps in general).
//
//queue:side consumer
//hotpath:ok working-set exchange slow path: mutexed ECC pointer swap once per working set (Fig. 6, Table 3)
func (q *Queue) returnWS() {
	var t0 time.Time
	if q.hReturn != nil {
		t0 = time.Now()
	}
	q.traceCons.QueueReturn(int32(q.id), q.consWS.Load())
	q.mu.Lock()
	d, c := q.drained.load()
	q.drained.store(d + 1)
	q.mu.Unlock()
	q.stats.correctedPointerErrors.Add(c)
	q.stats.pointerECCOps.Add(q.cost.WorksetExchangeOps + c*q.cost.ScrubOps)
	if q.hReturn != nil {
		q.hReturn.Record(uint64(time.Since(t0)))
	}
	nw := q.consWS.Load() + 1
	q.consWS.Store(nw)
	q.consWSIdx = nw % uint32(q.cfg.WorkingSets)
	q.consBase = q.consWSIdx * uint32(q.cfg.WorkingSetUnits)
	q.consOffset.Store(0)
	signal(q.notFull)
}

// Len reports the number of published, undrained units (approximate under
// corruption and during concurrent transit). Intended for tests and
// diagnostics.
func (q *Queue) Len() int {
	q.mu.Lock()
	f, _ := q.filled.load()
	q.mu.Unlock()
	n := 0
	k := uint32(q.cfg.WorkingSets)
	consWS := q.consWS.Load()
	consOffset := q.consOffset.Load()
	for ws := consWS; int32(f-ws) > 0 && ws-consWS < k; ws++ {
		l := q.wsLen[ws%k].Load()
		if ws == consWS {
			if l >= consOffset {
				n += int(l - consOffset)
			}
		} else {
			n += int(l)
		}
	}
	return n
}

// CorruptPointer flips one random bit in one of the shared working-set
// pointers, modeling a queue-management error (§3, QME). With protected
// pointers the flip is repaired on the next access; with the raw software
// queue it corrupts the producer/consumer handshake.
//
//queue:side injector
func (q *Queue) CorruptPointer(r *rand.Rand) {
	q.mu.Lock()
	if r.Intn(2) == 0 {
		q.filled.corrupt(r)
	} else {
		q.drained.corrupt(r)
	}
	q.mu.Unlock()
	signal(q.notEmpty)
	signal(q.notFull)
}

// CorruptUnit flips one random bit of one random in-flight buffer slot,
// covering the full unit word: the payload/codeword bits AND the
// is-header tag bit (bit 63). Tag-bit flips model header<->data
// confusion — a data unit masquerading as a header, or a header
// demoted to a garbage item — which payload-only injection
// (Unit.WithBitFlipped) can never produce. The CAS makes the flip
// race-free against the owner sides' atomic slot accesses.
//
//queue:side injector
func (q *Queue) CorruptUnit(r *rand.Rand) {
	slot := &q.buf[r.Intn(len(q.buf))]
	bit := r.Intn(q.coder.Width() + 1) // the last draw targets the tag bit
	for {
		old := slot.Load()
		nw := uint64(Unit(old).WithUnitBitFlipped(q.coder, bit))
		if slot.CompareAndSwap(old, nw) {
			return
		}
	}
}

// CorruptLocalOffset flips a bit in a local (per-core, register-resident)
// queue offset. Only meaningful for the unprotected software queue: when
// CommGuard's QM is present these offsets live in the reliable QIT. The
// flip is applied with a CAS so it is race-free against the owner's
// lock-free fast path; a flip that loses the race with an in-flight
// increment is dropped, like a register write shadowed by the pipeline.
//
//queue:side injector
func (q *Queue) CorruptLocalOffset(r *rand.Rand) {
	mask := uint32(1) << uint(r.Intn(16)) // offsets are small; flip a low bit
	target := &q.prodOffset
	if r.Intn(2) != 0 {
		target = &q.consOffset
	}
	for {
		old := target.Load()
		if target.CompareAndSwap(old, old^mask) {
			return
		}
	}
}

// Stats returns a snapshot of the queue's event counters. Safe to call
// concurrently with transit; every counter is monotonic.
func (q *Queue) Stats() Stats {
	return q.stats.snapshot()
}
