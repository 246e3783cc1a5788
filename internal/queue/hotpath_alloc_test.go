package queue

import (
	"testing"
	"time"
)

// Runtime cross-validation of the static hot-path proof (internal/hotpath):
// the //hotpath:entry transit functions must not allocate in steady state.
// Subtest names carry the annotated function names, so a CS020 finding on
// Queue.PushDataN and the failing test point at the same function. Each
// measured run pairs the named producer op with its consumer dual — a
// bounded queue cannot push without draining — so both names appear.

func allocTestQueue(t *testing.T) *Queue {
	t.Helper()
	return allocTestQueueCoder(t, "")
}

func allocTestQueueCoder(t *testing.T, coder string) *Queue {
	t.Helper()
	q := MustNew(1, Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: time.Second, Coder: coder})
	// Production and consumption below are balanced per run, so the
	// working-set exchange never waits; sequential mode keeps even a
	// pathological scheduler from entering the timer machinery.
	q.SetSequential()
	return q
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/run, want 0 (the static CS020 gate should have caught this; see internal/hotpath)", name, avg)
	}
}

func TestHotpathAllocFree(t *testing.T) {
	const n = 64 // one working set per run

	t.Run("Queue.Push+Queue.Pop", func(t *testing.T) {
		q := allocTestQueue(t)
		assertZeroAllocs(t, "Push/Pop", func() {
			for i := 0; i < n; i++ {
				q.Push(DataUnit(uint32(i)))
			}
			for i := 0; i < n; i++ {
				if _, ok := q.Pop(); !ok {
					t.Fatal("pop failed mid-run")
				}
			}
		})
	})

	t.Run("Queue.PushDataN+Queue.PopDataN", func(t *testing.T) {
		q := allocTestQueue(t)
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = uint32(i)
		}
		dst := make([]uint32, n)
		assertZeroAllocs(t, "PushDataN/PopDataN", func() {
			q.PushDataN(vs)
			if got, stop := q.PopDataN(dst); got != n || stop != PopStopFull {
				t.Fatalf("PopDataN delivered %d (stop %v), want %d", got, stop, n)
			}
		})
	})

	// The coder is resolved once at New; dynamic dispatch through it on
	// the pointer-protection path must not reintroduce allocations.
	t.Run("Queue.Push+Queue.Pop/ldpc", func(t *testing.T) {
		q := allocTestQueueCoder(t, "ldpc")
		assertZeroAllocs(t, "Push/Pop (ldpc)", func() {
			for i := 0; i < n; i++ {
				q.Push(DataUnit(uint32(i)))
			}
			for i := 0; i < n; i++ {
				if _, ok := q.Pop(); !ok {
					t.Fatal("pop failed mid-run")
				}
			}
		})
	})
}
