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

// word is one queue word: a buffer slot, a published working-set length,
// a local offset, a stats counter or a shared pointer. Its accessors take
// the queue's mode (Queue.plain). Across goroutines they are sync/atomic
// operations. When one goroutine drives both sides (SetSequential) they
// are plain memory operations: program order already orders every access
// and no other goroutine can observe the word, so a lock prefix would
// protect nothing.
type word struct {
	_ [0]atomic.Uint64 // 64-bit alignment on 32-bit platforms
	v uint64
}

func (w *word) load(plain bool) uint64 {
	if plain {
		return w.v
	}
	return atomic.LoadUint64(&w.v)
}

func (w *word) store(plain bool, v uint64) {
	if plain {
		w.v = v
		return
	}
	atomic.StoreUint64(&w.v, v)
}

func (w *word) add(plain bool, d uint64) {
	if plain {
		w.v += d
		return
	}
	atomic.AddUint64(&w.v, d)
}

func (w *word) cas(plain bool, old, nw uint64) bool {
	if plain {
		if w.v != old {
			return false
		}
		w.v = nw
		return true
	}
	return atomic.CompareAndSwapUint64(&w.v, old, nw)
}

// flip XORs mask into the word with a CAS loop, so a concurrent owner
// update is never shadowed: the flip lands either before it (and is seen)
// or on the new value. It is the fault injector's only write.
func (w *word) flip(plain bool, mask uint64) {
	for {
		old := w.load(plain)
		if w.cas(plain, old, old^mask) {
			return
		}
	}
}

// statWords mirrors Stats with word counters so the lock-free fast path
// and concurrent diagnostics (Stats, the corruption stress tests) never
// race. Per-item operations touch exactly one of these. The
// producer-written and consumer-written counters live on separate cache
// lines: both sides increment one counter per item, and co-locating them
// would put a coherence miss on every fast-path operation.
type statWords struct {
	// Producer-written.
	itemStores       word
	headerStores     word
	pushTimeouts     word
	forcedOverwrites word
	_                [4]uint64

	// Consumer-written.
	itemLoads   word
	headerLoads word
	popTimeouts word
	_           [5]uint64

	// Written by both sides, only at working-set exchanges.
	pointerECCOps          word
	correctedPointerErrors word
}

func (s *statWords) snapshot(plain bool) Stats {
	return Stats{
		ItemStores:             s.itemStores.load(plain),
		ItemLoads:              s.itemLoads.load(plain),
		HeaderStores:           s.headerStores.load(plain),
		HeaderLoads:            s.headerLoads.load(plain),
		PointerECCOps:          s.pointerECCOps.load(plain),
		CorrectedPointerErrors: s.correctedPointerErrors.load(plain),
		PushTimeouts:           s.pushTimeouts.load(plain),
		PopTimeouts:            s.popTimeouts.load(plain),
		ForcedOverwrites:       s.forcedOverwrites.load(plain),
	}
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
//     words so that even a corrupted raw pointer (the software queue of
//     Fig. 3b) makes the consumer read stale garbage — the modeled
//     failure — rather than a Go data race.
//   - The shared filled/drained exchanges are lock-free too and pay the
//     ECC suboperation costs of Table 3. Each pointer is one word holding
//     the raw counter or its ECC codeword. Its owner advances it with a
//     load–decode–encode–CAS loop; the peer refreshes its view with one
//     load and a decode. A corrected word is scrubbed with a CAS, and the
//     injector flips a bit with one, so neither can shadow the owner's
//     advance: a flip is either seen and corrected, or lands on the new
//     word.
//   - When one goroutine drives both sides (SetSequential), every word
//     access is plain memory: see word.
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

	// plain selects the word accessors' one-goroutine mode. It is set
	// before transit starts (SetSequential) and never changes after.
	plain bool

	// filled and drained are the shared working-set pointers, stored as
	// encodePointer words. The //queue: annotations below declare the
	// concurrency discipline of each field; internal/soundness verifies
	// every method against them (CS010, CS012).
	filled  word //queue:owned-by producer
	drained word //queue:owned-by consumer

	buf   []word // Unit values //queue:shared-atomic
	wsLen []word // published length of each working set slot //queue:shared-atomic
	// ring is the pooled block buf and wsLen are carved from (see New and
	// Release); nil once released. //queue:shared-atomic
	ring *[]word

	closed atomic.Bool //queue:owned-by producer

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
	// via CorruptLocalOffset). The offset is a word so injected
	// corruption and diagnostics are race-free; only the producer stores
	// to it. Each side's per-item state is padded onto its own cache line:
	// prodOffset and consOffset are both stored once per item, and sharing
	// a line would ping-pong it between the two cores.
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
	// prodWSIdx/prodBase (and the consumer twins) hold ws%k and (ws%k)*s
	// for the working set currently in use; publish/return advance them
	// by increment-and-wrap, sparing the per-item path two integer
	// divisions and the exchange one.
	//
	// filledWord/filledVal (and drainedWord/drainedVal) memoize the word
	// the owner last stored into its shared pointer and the value that
	// word encodes. A pointer word bit-identical to the memo is a valid
	// codeword with a known value, so its reader skips the decode; any
	// other word (a flipped one, or a miscorrection's scrub) takes the
	// full decode, correction, scrub and count.
	// Only the owner stores them, and only after its CAS lands. The peer
	// reads them only in one-goroutine mode (SetSequential): across
	// goroutines the pair could be read torn. They are words so that read
	// is the same word load as every other cross-side access.
	_             [64]byte
	prodOffset    word   //queue:owned-by producer
	filledWord    word   // last word the producer stored into filled //queue:owned-by producer
	filledVal     word   // the value filledWord encodes //queue:owned-by producer
	prodWS        uint32 // working set currently being filled //queue:owned-by producer
	prodWSIdx     uint32 // prodWS % WorkingSets //queue:owned-by producer
	prodBase      uint32 // prodWSIdx * WorkingSetUnits //queue:owned-by producer
	cachedDrained uint32 // producer's view of the consumer's progress //queue:owned-by producer
	pushStreak    uint32 //queue:owned-by producer
	_             [20]byte

	// Consumer-local state.
	consOffset   word   //queue:owned-by consumer
	drainedWord  word   // last word the consumer stored into drained //queue:owned-by consumer
	drainedVal   word   // the value drainedWord encodes //queue:owned-by consumer
	consWS       uint32 // working set currently being drained //queue:owned-by consumer
	consWSIdx    uint32 // consWS % WorkingSets //queue:owned-by consumer
	consBase     uint32 // consWSIdx * WorkingSetUnits //queue:owned-by consumer
	cachedFilled uint32 // consumer's view of the producer's progress //queue:owned-by consumer
	popStreak    uint32 //queue:owned-by consumer
	_            [20]byte

	stats statWords //queue:counters

	// traceProd/traceCons record this queue's slow-path events (working-set
	// publish/return, timeouts) into the owning side's core ring. Nil when
	// tracing is off; every emit sits on a slow path, never per item.
	traceProd *obs.Ring //queue:owned-by producer
	traceCons *obs.Ring //queue:owned-by consumer

	// Latency shards (nil when health recording is off). Wait shards
	// record time spent blocked in the acquire funnels — entered only
	// after the cached peer view says no slot is available, so the
	// lock-free per-item fast path never reads the clock. The
	// publish/return shards time the ECC pointer exchanges. Each shard
	// belongs to the side that writes it, like the rings above.
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

// rings recycles queue memory across runs: one sync.Pool per block length
// (WorkingSets*(WorkingSetUnits+1) words: the ring, then the working-set
// lengths). A pool holds *[]word so Put does not allocate. Like the
// paper's fixed queue region, which the hardware reuses for the whole
// program, a run borrows its rings and the next run of the same geometry
// takes them over.
var rings sync.Map // int -> *sync.Pool

func ringPool(n int) *sync.Pool {
	if p, ok := rings.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := rings.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}

// New creates a queue with the given identifier (the QID used by CommGuard's
// Queue Information Table) and configuration. Its ring comes from the pool
// of released rings when one of its size is there, cleared, so every queue
// starts all-zero exactly as a fresh allocation does: a software queue
// whose pointer or offset was corrupted reads unwritten slots, and those
// must read 0.
func New(id int, cfg Config) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	coder := cfg.coder()
	n := cfg.WorkingSets * cfg.WorkingSetUnits
	ring, _ := ringPool(n + cfg.WorkingSets).Get().(*[]word)
	if ring != nil {
		clear(*ring)
	} else {
		blk := make([]word, n+cfg.WorkingSets)
		ring = &blk
	}
	q := &Queue{
		id:       id,
		cfg:      cfg,
		coder:    coder,
		cost:     coder.Cost(),
		ring:     ring,
		buf:      (*ring)[:n:n],
		wsLen:    (*ring)[n:],
		notFull:  make(chan struct{}, 1),
		notEmpty: make(chan struct{}, 1),
	}
	q.filled.v = q.encodePointer(0)
	q.drained.v = q.encodePointer(0)
	q.filledWord.v = q.filled.v
	q.drainedWord.v = q.drained.v
	return q, nil
}

// Release returns the queue's ring to the pool for the next New of the
// same geometry. Call it once transit has ended and no goroutine can touch
// the queue again; the stream engine releases every queue it wired when
// its run returns. Any later transit or CorruptUnit panics instead of
// writing into a ring another queue now owns. ID, Capacity, Coder and
// Stats stay valid. Releasing twice is a no-op.
//
//queue:side init
func (q *Queue) Release() {
	if q.ring == nil {
		return
	}
	ringPool(len(*q.ring)).Put(q.ring)
	q.ring, q.buf, q.wsLen = nil, nil, nil
}

// useAfterRelease is the panic value of transit on a released queue.
const useAfterRelease = "queue: transit after Release"

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

// SetSequential declares that one goroutine drives both sides of the
// queue, as sequential (statically scheduled) execution does. Pop then
// fails immediately on an empty queue and Push overwrites immediately on
// a full one, instead of waiting for the peer, since blocking could never
// be satisfied; and every queue word is accessed as plain memory (see
// word). Call it before transit starts. From then on every method,
// Stats and Len included, must run on that goroutine or after transit.
//
//queue:side init
func (q *Queue) SetSequential() { q.plain = true }

// encodePointer is the stored form of a shared pointer value: the raw
// counter on the software queue, its ECC codeword when ProtectPointers is
// set.
func (q *Queue) encodePointer(v uint32) uint64 {
	if !q.cfg.ProtectPointers {
		return uint64(v)
	}
	return uint64(q.coder.Encode(v))
}

// decodePointer reads a shared pointer value out of its stored word,
// correcting a single-bit error when protected. corrected is 0 or 1; a
// correction implies one extra encode (the scrub write-back), which is
// charged as CostModel.ScrubOps.
func (q *Queue) decodePointer(w uint64) (v uint32, corrected uint64) {
	if !q.cfg.ProtectPointers {
		return uint32(w), 0
	}
	v, res := q.coder.Decode(ecc.Codeword(w))
	if res == ecc.Corrected {
		return v, 1
	}
	return v, 0
}

// charge books one shared-pointer access at the Table 3 price ops, plus
// one scrub re-encode per corrected word.
func (q *Queue) charge(ops, corrected uint64) {
	if corrected != 0 {
		q.stats.correctedPointerErrors.add(q.plain, corrected)
	}
	q.stats.pointerECCOps.add(q.plain, ops+corrected*q.cost.ScrubOps)
}

// refreshDrained is the producer's read of the consumer's shared pointer:
// one load and a decode at the Table 3 refresh price. In one-goroutine
// mode a word equal to the consumer's memo skips the decode (see
// drainedWord). A corrected word is scrubbed with a CAS; if the consumer
// or the injector replaced the word in between, the CAS fails harmlessly
// and the correction is left to whoever reads the new word, so every flip
// is counted once.
//
//queue:side producer
func (q *Queue) refreshDrained() uint32 {
	old := q.drained.load(q.plain)
	if q.plain && old == q.drainedWord.load(true) {
		q.charge(q.cost.RefreshFillOps, 0)
		return uint32(q.drainedVal.load(true))
	}
	d, c := q.decodePointer(old)
	if c != 0 && !q.drained.cas(q.plain, old, q.encodePointer(d)) {
		c = 0
	}
	q.charge(q.cost.RefreshFillOps, c)
	return d
}

// refreshFilled is refreshDrained for the consumer's read of the
// producer's shared pointer.
//
//queue:side consumer
func (q *Queue) refreshFilled() uint32 {
	old := q.filled.load(q.plain)
	if q.plain && old == q.filledWord.load(true) {
		q.charge(q.cost.RefreshDrainOps, 0)
		return uint32(q.filledVal.load(true))
	}
	f, c := q.decodePointer(old)
	if c != 0 && !q.filled.cas(q.plain, old, q.encodePointer(f)) {
		c = 0
	}
	q.charge(q.cost.RefreshDrainOps, c)
	return f
}

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

// canFill refreshes the producer's view of the consumer's progress (one
// shared ECC pointer access) and reports whether the producer may start
// filling its next working set. Its callers consult the cached view first
// and come here only when it says the ring is full; the view cannot
// change while the producer waits, since only canFill writes it.
//
//queue:side producer
func (q *Queue) canFill() bool {
	d := q.refreshDrained()
	q.cachedDrained = d
	if q.prodWS-d < uint32(q.cfg.WorkingSets) {
		q.pushStreak = 0
		return true
	}
	return false
}

// acquireFillSlot runs before the first push into a fresh working set when
// the cached view says the ring is full: one refresh, which in the
// fault-free steady state finds the consumer has caught up. Past a refresh
// that finds the ring still full it takes awaitFillSlot.
//
//queue:side producer
//hotpath:ok working-set exchange slow path: lock-free ECC pointer access (Fig. 6, Table 3)
func (q *Queue) acquireFillSlot() {
	if q.ring == nil {
		panic(useAfterRelease)
	}
	if !q.canFill() {
		q.awaitFillSlot()
	}
}

// awaitFillSlot waits (bounded by the timeout budget) for a free working
// set, and on timeout proceeds anyway, overwriting undrained data (§5.1: a
// timeout may cause incorrect data to be transmitted but frame checking
// still realigns at frame boundaries). A sequential queue's producer never
// waits: it times out at once.
//
//queue:side producer
//hotpath:ok working-set exchange slow path: bounded wait + lock-free ECC pointer access (Fig. 6, Table 3)
func (q *Queue) awaitFillSlot() {
	if q.plain {
		q.stats.pushTimeouts.add(q.plain, 1)
		q.stats.forcedOverwrites.add(q.plain, 1)
		q.traceProd.PushTimeout(int32(q.id))
		return
	}
	// Past this point the producer genuinely waits; the fast path never
	// reads the clock.
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
				q.stats.pushTimeouts.add(q.plain, 1)
				q.stats.forcedOverwrites.add(q.plain, 1)
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
	// A free working set is only needed when starting one, and the slow
	// path only when the cached view says the ring is full.
	if q.prodOffset.load(q.plain) == 0 {
		if q.prodWS-q.cachedDrained < uint32(q.cfg.WorkingSets) {
			q.pushStreak = 0
		} else {
			q.acquireFillSlot()
		}
	}
	s := uint32(q.cfg.WorkingSetUnits)
	off := uint32(q.prodOffset.load(q.plain))
	idx := off
	if idx >= s { // corrupted offset: wrap like the pre-cache indexing did
		idx = off % s
	}
	q.buf[q.prodBase+idx].store(q.plain, uint64(u))
	if u.IsHeader() {
		q.stats.headerStores.add(q.plain, 1)
	} else {
		q.stats.itemStores.add(q.plain, 1)
	}
	off++
	q.prodOffset.store(q.plain, uint64(off))
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
//hotpath:ok working-set exchange slow path: lock-free ECC pointer advance once per working set (Fig. 6, Table 3)
func (q *Queue) publish(n uint32) {
	if n == 0 {
		return
	}
	var t0 time.Time
	if q.hPublish != nil {
		t0 = time.Now()
	}
	k := uint32(q.cfg.WorkingSets)
	q.wsLen[q.prodWSIdx].store(q.plain, uint64(n))
	q.traceProd.QueuePublish(int32(q.id), q.prodWS, n)
	var f uint32
	var c uint64
	for {
		old := q.filled.load(q.plain)
		if old == q.filledWord.load(q.plain) {
			f, c = uint32(q.filledVal.load(q.plain)), 0
		} else {
			f, c = q.decodePointer(old)
		}
		nw := q.encodePointer(f + 1)
		if q.filled.cas(q.plain, old, nw) {
			q.filledWord.store(q.plain, nw)
			q.filledVal.store(q.plain, uint64(f+1))
			break
		}
	}
	q.charge(q.cost.WorksetExchangeOps, c)
	if q.hPublish != nil {
		q.hPublish.Record(uint64(time.Since(t0)))
	}
	if f == q.prodWS {
		if q.prodWSIdx++; q.prodWSIdx == k {
			q.prodWSIdx = 0
		}
	} else {
		// Only a corrupted raw pointer (the software queue) moves the
		// producer to a working set other than the next one.
		q.prodWSIdx = (f + 1) % k
	}
	q.prodWS = f + 1
	q.prodBase = q.prodWSIdx * uint32(q.cfg.WorkingSetUnits)
	q.prodOffset.store(q.plain, 0)
	if !q.plain {
		// A sequential queue's consumer never waits (SetSequential), so
		// there is no one to wake.
		signal(q.notEmpty)
	}
}

// Flush publishes a partially filled working set (none when the current
// one is empty: publish ignores a length of 0). The producer calls it
// when its thread's computation ends so trailing items (and the
// end-of-computation header) reach the consumer.
//
//queue:side producer
func (q *Queue) Flush() {
	q.publish(uint32(q.prodOffset.load(q.plain)))
}

// Close marks the producer side finished. Blocked and future pops fail
// fast once all published data is drained.
//
//queue:side producer
func (q *Queue) Close() {
	q.closed.Store(true)
	signal(q.notEmpty)
}

// canDrain refreshes the consumer's view of the producer's progress (one
// shared ECC pointer access) and reports whether the consumer's current
// working set has been published. Its callers consult the cached view
// first and come here only when it is exhausted. The cached path needs no
// popStreak reset: the streak grows only after a refresh that left the
// view exhausted, and only a successful refresh here un-exhausts it.
//
//queue:side consumer
func (q *Queue) canDrain() bool {
	q.cachedFilled = q.refreshFilled()
	// Comparison is on free-running counters; after a raw-pointer
	// corruption these can disagree wildly — the consumer may see a huge
	// backlog (and read garbage from unwritten slots) or see nothing at
	// all (and time out). That is exactly the failure mode of Fig. 3b;
	// the timeout path bounds the damage.
	if int32(q.cachedFilled-q.consWS) <= 0 {
		return false
	}
	q.popStreak = 0
	return true
}

// acquireDrainSlot runs when the consumer's cached view is exhausted: one
// refresh, which in the fault-free steady state finds the consumer's
// working set published. Past a refresh that finds it unpublished it takes
// awaitDrainSlot. It returns false on timeout or when the queue is closed
// and fully drained.
//
//queue:side consumer
//hotpath:ok working-set exchange slow path: lock-free ECC pointer access (Fig. 6, Table 3)
func (q *Queue) acquireDrainSlot() bool {
	if q.ring == nil {
		panic(useAfterRelease)
	}
	return q.canDrain() || q.awaitDrainSlot()
}

// awaitDrainSlot waits (bounded by the timeout budget) until the
// consumer's working set is published. A sequential queue's consumer
// never waits: its pop times out at once.
//
//queue:side consumer
//hotpath:ok working-set exchange slow path: bounded wait + lock-free ECC pointer access (Fig. 6, Table 3)
func (q *Queue) awaitDrainSlot() bool {
	if q.plain {
		q.stats.popTimeouts.add(q.plain, 1)
		q.traceCons.PopTimeout(int32(q.id))
		return false
	}
	// Past this point the consumer genuinely waits; the fast path never
	// reads the clock.
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
				q.stats.popTimeouts.add(q.plain, 1)
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
	if int32(q.cachedFilled-q.consWS) <= 0 && !q.acquireDrainSlot() {
		return 0, false
	}
	u, off := q.next()
	q.take(u, off)
	return u, true
}

// PopIf removes the next unit only when it is bit for bit want: the
// Alignment Manager's compare of the frame header it expects. took
// reports whether it did; a taken unit is counted, and its working set
// returned, exactly as by Pop. Any other unit is left in place with
// nothing counted. ok is false when the pop failed, exactly as a failed
// Pop (one timeout counted); then took is false too.
//
//queue:side consumer
//hotpath:entry
func (q *Queue) PopIf(want Unit) (took, ok bool) {
	if int32(q.cachedFilled-q.consWS) <= 0 && !q.acquireDrainSlot() {
		return false, false
	}
	u, off := q.next()
	if u != want {
		return false, true
	}
	q.take(u, off)
	return true, true
}

// next reads the consumer's next unit and its local offset, without
// consuming it. The cached view must cover the working set.
//
//queue:side consumer
func (q *Queue) next() (Unit, uint32) {
	off := uint32(q.consOffset.load(q.plain))
	idx := off
	if s := uint32(q.cfg.WorkingSetUnits); idx >= s { // corrupted offset: wrap like the pre-cache indexing did
		idx = off % s
	}
	return Unit(q.buf[q.consBase+idx].load(q.plain)), off
}

// take consumes u, the unit next read at offset off: it counts the load
// and returns the working set once its published length is drained.
//
//queue:side consumer
func (q *Queue) take(u Unit, off uint32) {
	if u.IsHeader() {
		q.stats.headerLoads.add(q.plain, 1)
	} else {
		q.stats.itemLoads.add(q.plain, 1)
	}
	off++
	q.consOffset.store(q.plain, uint64(off))
	if off >= uint32(q.wsLen[q.consWSIdx].load(q.plain)) {
		q.returnWS()
	}
}

// returnWS returns the drained working set to the producer (the consumer
// side's shared pointer exchange; 10 ECC suboperations per Table 3 under
// Hamming — CostModel.WorksetExchangeOps in general).
//
//queue:side consumer
//hotpath:ok working-set exchange slow path: lock-free ECC pointer advance once per working set (Fig. 6, Table 3)
func (q *Queue) returnWS() {
	var t0 time.Time
	if q.hReturn != nil {
		t0 = time.Now()
	}
	q.traceCons.QueueReturn(int32(q.id), q.consWS)
	var c uint64
	for {
		old := q.drained.load(q.plain)
		var d uint32
		if old == q.drainedWord.load(q.plain) {
			d, c = uint32(q.drainedVal.load(q.plain)), 0
		} else {
			d, c = q.decodePointer(old)
		}
		nw := q.encodePointer(d + 1)
		if q.drained.cas(q.plain, old, nw) {
			q.drainedWord.store(q.plain, nw)
			q.drainedVal.store(q.plain, uint64(d+1))
			break
		}
	}
	q.charge(q.cost.WorksetExchangeOps, c)
	if q.hReturn != nil {
		q.hReturn.Record(uint64(time.Since(t0)))
	}
	q.consWS++
	if q.consWSIdx++; q.consWSIdx == uint32(q.cfg.WorkingSets) {
		q.consWSIdx = 0
	}
	q.consBase = q.consWSIdx * uint32(q.cfg.WorkingSetUnits)
	q.consOffset.store(q.plain, 0)
	if !q.plain {
		// As in publish: a sequential producer never waits.
		signal(q.notFull)
	}
}

// Len reports the number of published, undrained units (approximate under
// corruption and during concurrent transit). It reads the consumer's
// working set from the drained pointer, so it is safe from any goroutine
// of a concurrently driven queue, and it never scrubs. Intended for tests
// and diagnostics.
func (q *Queue) Len() int {
	f, _ := q.decodePointer(q.filled.load(q.plain))
	consWS, _ := q.decodePointer(q.drained.load(q.plain))
	n := 0
	k := uint32(q.cfg.WorkingSets)
	consOffset := uint32(q.consOffset.load(q.plain))
	for ws := consWS; int32(f-ws) > 0 && ws-consWS < k; ws++ {
		l := uint32(q.wsLen[ws%k].load(q.plain))
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
// pointers the flip lands in the codeword and is repaired on the next
// access; with the raw software queue it lands in the value and corrupts
// the producer/consumer handshake. Flip positions are drawn from the
// backend's codeword width, not a hardwired 39.
//
//queue:side injector
func (q *Queue) CorruptPointer(r *rand.Rand) {
	toFilled := r.Intn(2) == 0
	var mask uint64
	if q.cfg.ProtectPointers {
		mask = uint64(q.coder.FlipBit(0, r.Intn(q.coder.Width())))
	} else {
		mask = 1 << uint(r.Intn(32))
	}
	if toFilled {
		q.filled.flip(q.plain, mask)
	} else {
		q.drained.flip(q.plain, mask)
	}
	signal(q.notEmpty)
	signal(q.notFull)
}

// CorruptUnit flips one random bit of one random in-flight buffer slot,
// covering the full unit word: the payload/codeword bits AND the
// is-header tag bit (bit 63). Tag-bit flips model header<->data
// confusion — a data unit masquerading as a header, or a header
// demoted to a garbage item — which payload-only injection
// (Unit.WithBitFlipped) can never produce. The flip's CAS makes it
// race-free against the owner sides' slot accesses.
//
//queue:side injector
func (q *Queue) CorruptUnit(r *rand.Rand) {
	if q.ring == nil {
		panic(useAfterRelease)
	}
	slot := r.Intn(len(q.buf))
	bit := r.Intn(q.coder.Width() + 1) // the last draw targets the tag bit
	q.buf[slot].flip(q.plain, uint64(Unit(0).WithUnitBitFlipped(q.coder, bit)))
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
	mask := uint64(1) << uint(r.Intn(16)) // offsets are small; flip a low bit
	if r.Intn(2) == 0 {
		q.prodOffset.flip(q.plain, mask)
	} else {
		q.consOffset.flip(q.plain, mask)
	}
}

// Stats returns a snapshot of the queue's event counters. Every counter is
// monotonic. Safe to call concurrently with transit on a queue driven from
// two goroutines; after SetSequential, call it from the driving goroutine
// or after transit.
func (q *Queue) Stats() Stats {
	return q.stats.snapshot(q.plain)
}
