package queue

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"commguard/internal/ecc"
)

func testConfig() Config {
	return Config{WorkingSets: 4, WorkingSetUnits: 8, ProtectPointers: true, Timeout: 50 * time.Millisecond}
}

func TestUnitDataRoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xFFFFFFFF, 0xDEADBEEF} {
		u := DataUnit(v)
		if u.IsHeader() {
			t.Errorf("DataUnit(%#x) claims to be a header", v)
		}
		if u.Payload() != v {
			t.Errorf("Payload() = %#x, want %#x", u.Payload(), v)
		}
	}
}

func TestUnitHeaderRoundTrip(t *testing.T) {
	for _, id := range []uint32{0, 1, 4095, EOCHeaderID} {
		u := HeaderUnit(id)
		if !u.IsHeader() {
			t.Errorf("HeaderUnit(%d) not recognized as header", id)
		}
		got, res := u.HeaderID()
		if res != ecc.OK || got != id {
			t.Errorf("HeaderID() = %d,%v, want %d,OK", got, res, id)
		}
	}
}

func TestUnitHeaderECCCorrection(t *testing.T) {
	u := HeaderUnit(1234)
	// Flip a bit inside the codeword region (bits 0..38).
	corrupted := u ^ (1 << 7)
	got, res := corrupted.HeaderID()
	if res != ecc.Corrected || got != 1234 {
		t.Errorf("corrupted header decoded as %d,%v, want 1234,Corrected", got, res)
	}
}

func TestUnitBitFlipOnlyAffectsDataPayload(t *testing.T) {
	h := HeaderUnit(7)
	if h.WithBitFlipped(3) != h {
		t.Error("WithBitFlipped modified a header unit")
	}
	d := DataUnit(0)
	if d.WithBitFlipped(31).Payload() != 1<<31 {
		t.Error("WithBitFlipped(31) did not flip payload bit 31")
	}
	if d.WithBitFlipped(32) != d || d.WithBitFlipped(-1) != d {
		t.Error("out-of-range flips must be no-ops")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{WorkingSets: 1, WorkingSetUnits: 8}).Validate(); err == nil {
		t.Error("expected error for 1 working set")
	}
	if err := (Config{WorkingSets: 4, WorkingSetUnits: 0}).Validate(); err == nil {
		t.Error("expected error for empty working set")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if _, err := New(0, Config{}); err == nil {
		t.Error("New with zero config should fail")
	}
}

// FIFO order must hold across working-set boundaries.
func TestFIFOOrderAcrossWorkingSets(t *testing.T) {
	q := MustNew(1, testConfig())
	const n = 100 // spans several working sets (4*8 capacity, interleaved)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			u, ok := q.Pop()
			if !ok {
				t.Errorf("pop %d: unexpected timeout/close", i)
				return
			}
			if u.Payload() != uint32(i) {
				t.Errorf("pop %d: got %d", i, u.Payload())
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		q.Push(DataUnit(uint32(i)))
	}
	q.Flush()
	<-done
}

func TestFlushDeliversPartialWorkingSet(t *testing.T) {
	q := MustNew(1, testConfig())
	q.Push(DataUnit(42))
	q.Push(HeaderUnit(3))
	q.Flush()
	u, ok := q.Pop()
	if !ok || u.Payload() != 42 {
		t.Fatalf("first pop = %v,%v", u, ok)
	}
	u, ok = q.Pop()
	if !ok || !u.IsHeader() {
		t.Fatalf("second pop should be the header, got %v,%v", u, ok)
	}
}

// On a sequential queue neither side ever waits, so publishing and
// returning working sets must leave no wake token behind, while the
// concurrent queue keeps signalling its peer.
func TestSequentialQueueSendsNoWakeSignals(t *testing.T) {
	for _, sequential := range []bool{true, false} {
		q := MustNew(1, testConfig())
		if sequential {
			q.SetSequential()
		}
		const n = 3 * 8 // three working sets, each published and returned
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				q.Push(DataUnit(uint32(i)))
			}
			q.Flush()
			for i := 0; i < n; i++ {
				if u, ok := q.Pop(); !ok || u.Payload() != uint32(i) {
					t.Fatalf("sequential=%v round %d pop %d = %v,%v", sequential, round, i, u, ok)
				}
			}
		}
		tokens := len(q.notEmpty) + len(q.notFull)
		if sequential && tokens != 0 {
			t.Errorf("sequential queue left %d wake tokens (notEmpty %d, notFull %d)", tokens, len(q.notEmpty), len(q.notFull))
		}
		if !sequential && tokens == 0 {
			t.Error("concurrent queue sent no wake signal")
		}
	}
}

func TestPopTimesOutWhenEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = 20 * time.Millisecond
	q := MustNew(1, cfg)
	start := time.Now()
	_, ok := q.Pop()
	if ok {
		t.Fatal("pop on empty queue returned a unit")
	}
	if time.Since(start) < cfg.Timeout {
		t.Error("pop returned before the timeout elapsed")
	}
	if q.Stats().PopTimeouts != 1 {
		t.Errorf("PopTimeouts = %d, want 1", q.Stats().PopTimeouts)
	}
}

func TestPopFailsFastAfterCloseAndDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = 0 // would block forever without Close
	q := MustNew(1, cfg)
	q.Push(DataUnit(9))
	q.Flush()
	q.Close()
	if u, ok := q.Pop(); !ok || u.Payload() != 9 {
		t.Fatalf("expected queued item after close, got %v,%v", u, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain of a closed queue must fail")
	}
}

func TestPushTimeoutForcesOverwrite(t *testing.T) {
	cfg := Config{WorkingSets: 2, WorkingSetUnits: 2, ProtectPointers: true, Timeout: 15 * time.Millisecond}
	q := MustNew(1, cfg)
	// Fill both working sets (4 units) with no consumer.
	for i := 0; i < 4; i++ {
		q.Push(DataUnit(uint32(i)))
	}
	// Next push must block, time out, and proceed.
	q.Push(DataUnit(99))
	st := q.Stats()
	if st.PushTimeouts == 0 || st.ForcedOverwrites == 0 {
		t.Errorf("expected forced overwrite, stats = %+v", st)
	}
}

func TestProtectedPointerCorruptionIsRepaired(t *testing.T) {
	q := MustNew(1, testConfig())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		q.CorruptPointer(rng)
		// Push/pop one full working set so both pointers get exercised.
		for j := 0; j < q.cfg.WorkingSetUnits; j++ {
			q.Push(DataUnit(uint32(i*100 + j)))
		}
		for j := 0; j < q.cfg.WorkingSetUnits; j++ {
			u, ok := q.Pop()
			if !ok || u.Payload() != uint32(i*100+j) {
				t.Fatalf("iteration %d item %d: got %v,%v", i, j, u, ok)
			}
		}
	}
	if q.Stats().CorrectedPointerErrors == 0 {
		t.Error("expected at least one corrected pointer error")
	}
}

func TestUnprotectedPointerCorruptionBreaksOrder(t *testing.T) {
	cfg := testConfig()
	cfg.ProtectPointers = false
	cfg.Timeout = 10 * time.Millisecond
	q := MustNew(1, cfg)
	rng := rand.New(rand.NewSource(3))

	// With enough corruption the queue must misbehave (wrong data or
	// timeouts) but never panic or hang forever.
	misbehaved := false
	next := uint32(0)
	for i := 0; i < 200; i++ {
		q.Push(DataUnit(uint32(i)))
		if i%10 == 5 {
			q.CorruptPointer(rng)
		}
		if i%2 == 1 {
			u, ok := q.Pop()
			if !ok || u.Payload() != next {
				misbehaved = true
			}
			next += 2 // we pop every other push in this pattern
		}
	}
	if !misbehaved {
		t.Log("corruption happened to be benign for this seed; acceptable but unusual")
	}
}

func TestCorruptLocalOffset(t *testing.T) {
	cfg := testConfig()
	cfg.ProtectPointers = false
	q := MustNew(1, cfg)
	rng := rand.New(rand.NewSource(11))
	q.Push(DataUnit(1))
	q.CorruptLocalOffset(rng)
	// Must not panic on subsequent operations.
	q.Push(DataUnit(2))
	q.Flush()
	q.Pop()
	q.Pop()
}

func TestLen(t *testing.T) {
	q := MustNew(1, testConfig())
	if q.Len() != 0 {
		t.Errorf("empty queue Len = %d", q.Len())
	}
	for i := 0; i < 20; i++ { // 2.5 working sets; 16 published
		q.Push(DataUnit(uint32(i)))
	}
	if got := q.Len(); got != 16 {
		t.Errorf("Len = %d, want 16 (two published working sets)", got)
	}
	q.Flush()
	if got := q.Len(); got != 20 {
		t.Errorf("Len after flush = %d, want 20", got)
	}
	q.Pop()
	if got := q.Len(); got != 19 {
		t.Errorf("Len after one pop = %d, want 19", got)
	}
}

// Property: for any random push/pop interleaving (single producer, single
// consumer goroutines), the popped sequence equals the pushed sequence.
func TestQuickFIFOProperty(t *testing.T) {
	f := func(values []uint32, wsUnits uint8) bool {
		if len(values) > 500 {
			values = values[:500]
		}
		s := int(wsUnits%16) + 1
		cfg := Config{WorkingSets: 3, WorkingSetUnits: s, ProtectPointers: true, Timeout: time.Second}
		q := MustNew(1, cfg)
		var wg sync.WaitGroup
		wg.Add(1)
		okAll := true
		go func() {
			defer wg.Done()
			for i := range values {
				u, ok := q.Pop()
				if !ok || u.Payload() != values[i] {
					okAll = false
					return
				}
			}
		}()
		for _, v := range values {
			q.Push(DataUnit(v))
		}
		q.Flush()
		q.Close()
		wg.Wait()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: header units survive transit bit-exactly regardless of geometry.
func TestQuickHeaderTransit(t *testing.T) {
	f := func(ids []uint32) bool {
		cfg := Config{WorkingSets: 4, WorkingSetUnits: 32, ProtectPointers: true, Timeout: time.Second}
		q := MustNew(1, cfg)
		if len(ids) > 100 { // stay under the 128-unit capacity: no consumer runs concurrently
			ids = ids[:100]
		}
		for _, id := range ids {
			q.Push(HeaderUnit(id))
		}
		q.Flush()
		q.Close()
		for _, id := range ids {
			u, ok := q.Pop()
			if !ok || !u.IsHeader() {
				return false
			}
			got, res := u.HeaderID()
			if res != ecc.OK || got != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulation(t *testing.T) {
	q := MustNew(1, testConfig())
	q.Push(DataUnit(1))
	q.Push(HeaderUnit(2))
	q.Flush()
	q.Pop()
	q.Pop()
	st := q.Stats()
	if st.ItemStores != 1 || st.HeaderStores != 1 || st.ItemLoads != 1 || st.HeaderLoads != 1 {
		t.Errorf("unexpected stats %+v", st)
	}
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.ItemStores != 2 {
		t.Errorf("Add failed: %+v", sum)
	}
}

func TestValidateRejectsNegativeTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a negative timeout")
	}
	if _, err := New(1, cfg); err == nil {
		t.Error("New accepted a negative timeout")
	}
}

// TestCancelWakesIndefinitelyBlockedPop is the §5.1 teardown guarantee: a
// consumer parked forever (Timeout 0) on an empty queue must unwind when
// the cancel signal fires, returning ok=false like a timed-out pop.
func TestCancelWakesIndefinitelyBlockedPop(t *testing.T) {
	cancel := make(chan struct{})
	cfg := testConfig()
	cfg.Timeout = 0 // block indefinitely
	cfg.Cancel = cancel
	q := MustNew(1, cfg)

	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	select {
	case <-done:
		t.Fatal("pop returned before cancellation")
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled pop reported ok=true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not wake the blocked pop")
	}
}

// TestCancelWakesIndefinitelyBlockedPush: the producer twin — a full ring
// with an absent consumer must not park the producer forever once the run
// is cancelled.
func TestCancelWakesIndefinitelyBlockedPush(t *testing.T) {
	cancel := make(chan struct{})
	cfg := testConfig()
	cfg.Timeout = 0
	cfg.Cancel = cancel
	q := MustNew(1, cfg)

	// Fill every working set; the next push must wait for a drain.
	for i := 0; i < q.Capacity(); i++ {
		q.Push(DataUnit(uint32(i)))
	}
	done := make(chan struct{})
	go func() {
		q.Push(DataUnit(0xBEEF))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("push on a full queue returned before cancellation")
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not wake the blocked push")
	}
}

// TestCancelledQueueFailsFast: after cancellation, blocking operations do
// not park at all — pops fail and pushes proceed immediately.
func TestCancelledQueueFailsFast(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	cfg := testConfig()
	cfg.Timeout = 0
	cfg.Cancel = cancel
	q := MustNew(1, cfg)

	start := time.Now()
	if _, ok := q.Pop(); ok {
		t.Error("pop on an empty cancelled queue reported ok=true")
	}
	for i := 0; i < 2*q.Capacity(); i++ { // wraps past full without blocking
		q.Push(DataUnit(uint32(i)))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled operations took %v, want fail-fast", elapsed)
	}
}

// A consumer blocked in Pop at end of stream must receive the working set
// the producer Flushes just before Close, even when the Flush+Close lands
// between the consumer's last canDrain and its closed check. That window
// is narrow, so the loop sweeps the producer's timing against the
// consumer's entry into Pop.
func TestBlockedPopReceivesTailFlushedBeforeClose(t *testing.T) {
	const iters, k = 20000, 3
	lost := 0
	for it := 0; it < iters; it++ {
		cfg := testConfig()
		cfg.Timeout = 0
		q := MustNew(1, cfg)
		got := make(chan int, 1)
		var ready atomic.Bool
		go func() {
			n := 0
			ready.Store(true)
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
				n++
			}
			got <- n
		}()
		for i := 0; i < k; i++ {
			q.Push(DataUnit(uint32(i)))
		}
		for !ready.Load() {
		}
		for i := 0; i < it%8 && it%2 == 1; i++ {
			runtime.Gosched()
		}
		q.Flush()
		q.Close()
		if n := <-got; n != k {
			lost++
		}
		if to := q.Stats().PopTimeouts; to != 0 {
			t.Fatalf("iteration %d: %d pop timeouts on a blocking queue", it, to)
		}
	}
	if lost > 0 {
		t.Errorf("consumer lost the flushed tail in %d of %d iterations", lost, iters)
	}
}
