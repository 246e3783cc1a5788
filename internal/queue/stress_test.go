package queue

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Regression test for the old waitTimeout scheme (time.AfterFunc firing
// cond.Broadcast), which allocated a timer per blocking wait and woke
// waiters on the other side of the queue. Timeouts must be counted
// exactly once per failed operation and must never leak onto the peer's
// counters.
func TestTimeoutCountsPerSide(t *testing.T) {
	cfg := Config{WorkingSets: 2, WorkingSetUnits: 2, ProtectPointers: true, Timeout: 5 * time.Millisecond}

	q := MustNew(1, cfg)
	const pops = 7
	for i := 0; i < pops; i++ {
		if _, ok := q.Pop(); ok {
			t.Fatal("pop on empty queue succeeded")
		}
	}
	st := q.Stats()
	if st.PopTimeouts != pops {
		t.Errorf("PopTimeouts = %d, want %d (one per failed pop)", st.PopTimeouts, pops)
	}
	if st.PushTimeouts != 0 || st.ForcedOverwrites != 0 {
		t.Errorf("consumer timeouts leaked onto the producer side: %+v", st)
	}

	q = MustNew(2, cfg)
	for i := 0; i < q.Capacity(); i++ { // fill every working set
		q.Push(DataUnit(uint32(i)))
	}
	const pushes = 5
	for i := 0; i < pushes; i++ { // each new working set must time out
		for j := 0; j < cfg.WorkingSetUnits; j++ {
			q.Push(DataUnit(0))
		}
	}
	st = q.Stats()
	if st.PushTimeouts != pushes || st.ForcedOverwrites != pushes {
		t.Errorf("PushTimeouts/ForcedOverwrites = %d/%d, want %d/%d",
			st.PushTimeouts, st.ForcedOverwrites, pushes, pushes)
	}
	if st.PopTimeouts != 0 {
		t.Errorf("producer timeouts leaked onto the consumer side: %+v", st)
	}
}

// A consumer blocking with a deadline while the producer never blocks (and
// vice versa) must not disturb the peer: concurrent traffic with one
// starved side keeps the other side's timeout counters at zero.
func TestTimeoutIsolationUnderConcurrency(t *testing.T) {
	cfg := Config{WorkingSets: 4, WorkingSetUnits: 4, ProtectPointers: true, Timeout: 2 * time.Millisecond}
	q := MustNew(1, cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			q.Pop() // mostly starved: many pop timeouts
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < 8; i++ { // light producer load, never fills the ring
		q.Push(DataUnit(uint32(i)))
		time.Sleep(time.Millisecond)
	}
	q.Flush()
	wg.Wait()
	st := q.Stats()
	if st.PushTimeouts != 0 || st.ForcedOverwrites != 0 {
		t.Errorf("starved consumer caused producer-side timeouts: %+v", st)
	}
	if st.PopTimeouts == 0 {
		t.Error("expected at least one pop timeout from the starved consumer")
	}
}

func statsMonotonic(prev, cur Stats) bool {
	return cur.ItemStores >= prev.ItemStores &&
		cur.ItemLoads >= prev.ItemLoads &&
		cur.HeaderStores >= prev.HeaderStores &&
		cur.HeaderLoads >= prev.HeaderLoads &&
		cur.PointerECCOps >= prev.PointerECCOps &&
		cur.CorrectedPointerErrors >= prev.CorrectedPointerErrors &&
		cur.PushTimeouts >= prev.PushTimeouts &&
		cur.PopTimeouts >= prev.PopTimeouts &&
		cur.ForcedOverwrites >= prev.ForcedOverwrites
}

// Concurrent corruption stress: a producer and a consumer hammer the
// queue while a third goroutine corrupts shared pointers and local
// offsets, as the fault injector does from arbitrary node goroutines.
// Must be race-free under -race for both protection levels, and the
// stats snapshot must stay monotonic throughout.
func TestConcurrentCorruptionStress(t *testing.T) {
	for _, prot := range []bool{true, false} {
		cfg := Config{WorkingSets: 4, WorkingSetUnits: 16, ProtectPointers: prot, Timeout: time.Millisecond}
		q := MustNew(1, cfg)
		stop := make(chan struct{})
		var wg sync.WaitGroup

		wg.Add(1)
		go func() { // producer
			defer wg.Done()
			i := uint32(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i%97 == 96 {
					q.Push(HeaderUnit(i))
					q.Flush()
				} else {
					q.Push(DataUnit(i))
				}
				i++
			}
		}()

		wg.Add(1)
		go func() { // consumer, mixing per-item and batch pops
			defer wg.Done()
			dst := make([]uint32, 9)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q.Pop()
				q.PopDataN(dst)
				q.PeekAt(3)
				q.Len()
			}
		}()

		wg.Add(1)
		go func() { // corruptor on a third goroutine
			defer wg.Done()
			rng := rand.New(rand.NewSource(99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q.CorruptPointer(rng)
				q.CorruptLocalOffset(rng)
				time.Sleep(50 * time.Microsecond)
			}
		}()

		deadline := time.Now().Add(150 * time.Millisecond)
		prev := q.Stats()
		for time.Now().Before(deadline) {
			cur := q.Stats()
			if !statsMonotonic(prev, cur) {
				t.Errorf("protected=%v: stats went backwards:\nprev %+v\ncur  %+v", prot, prev, cur)
				break
			}
			prev = cur
			time.Sleep(2 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
	}
}
