package queue

import (
	"math/rand"
	"runtime/debug"
	"testing"
	"time"
)

// recycleConfig is a geometry no other test of the package uses, so its
// ring pool holds only the rings these tests release.
func recycleConfig(protect bool) Config {
	return Config{WorkingSets: 3, WorkingSetUnits: 37, ProtectPointers: protect, Timeout: time.Millisecond}
}

// dirty fills q's ring with data and headers across several working sets,
// so both the slots and the published lengths hold nonzero words.
func dirty(q *Queue) {
	for i := range 100 {
		if i%10 == 0 {
			q.Push(HeaderUnit(uint32(i)))
		}
		q.Push(DataUnit(uint32(i) | 0x8000_0000))
		if i%3 == 0 {
			q.Pop()
		}
	}
	q.Flush()
}

// A released ring is the next same-geometry queue's ring, and it comes
// back all zero: a corrupted software-queue pointer or offset reads
// unwritten slots, and they must read 0 as in a fresh allocation.
func TestReleaseRecyclesZeroedRing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	for _, protect := range []bool{false, true} {
		// Under -race, sync.Pool drops a random quarter of its Puts; retry
		// until one ring survives the round trip.
		recycled := false
		for attempt := 0; attempt < 20 && !recycled; attempt++ {
			q := MustNew(1, recycleConfig(protect))
			q.SetSequential()
			dirty(q)
			old := &q.buf[0]
			q.Release()
			q2 := MustNew(2, recycleConfig(protect))
			if &q2.buf[0] != old {
				continue
			}
			recycled = true
			for i := range q2.buf {
				if v := q2.buf[i].v; v != 0 {
					t.Fatalf("protect=%v: recycled slot %d = %#x, want 0", protect, i, v)
				}
			}
			for i := range q2.wsLen {
				if v := q2.wsLen[i].v; v != 0 {
					t.Fatalf("protect=%v: recycled working-set length %d = %d, want 0", protect, i, v)
				}
			}
			if n := q2.Len(); n != 0 {
				t.Errorf("protect=%v: recycled queue holds %d units", protect, n)
			}
			q2.SetSequential()
			if u, ok := q2.Pop(); ok {
				t.Errorf("protect=%v: recycled queue popped %#x", protect, u)
			}
			q2.Release()
		}
		if !recycled {
			t.Fatalf("protect=%v: New never returned the released ring", protect)
		}
	}
}

// Transit on a released queue panics instead of writing into a ring that
// another queue may own by now; its identity and counters stay readable.
func TestReleasedQueuePanics(t *testing.T) {
	ops := map[string]func(q *Queue){
		"Push":        func(q *Queue) { q.Push(DataUnit(1)) },
		"Pop":         func(q *Queue) { q.Pop() },
		"PushDataN":   func(q *Queue) { q.PushDataN([]uint32{1, 2, 3}) },
		"PopDataN":    func(q *Queue) { q.PopDataN(make([]uint32, 3)) },
		"CorruptUnit": func(q *Queue) { q.CorruptUnit(rand.New(rand.NewSource(1))) },
	}
	for name, op := range ops {
		for _, sequential := range []bool{false, true} {
			q := MustNew(7, recycleConfig(true))
			if sequential {
				q.SetSequential()
			}
			dirty(q)
			want := q.Stats()
			q.Release()
			q.Release() // a second Release is a no-op
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (sequential=%v) on a released queue did not panic", name, sequential)
					}
				}()
				op(q)
			}()
			if got := q.Stats(); got != want {
				t.Errorf("%s (sequential=%v): Stats after Release = %+v, want %+v", name, sequential, got, want)
			}
			if q.ID() != 7 || q.Capacity() != 3*37 || q.Coder() == nil {
				t.Errorf("%s (sequential=%v): ID %d, Capacity %d, Coder %v after Release", name, sequential, q.ID(), q.Capacity(), q.Coder())
			}
		}
	}
}
