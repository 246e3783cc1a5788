package commguard

import (
	"testing"
	"time"

	"commguard/internal/obs"
	"commguard/internal/queue"
)

// Runtime cross-validation of the static hot-path proof (internal/hotpath):
// the //hotpath:entry protection fast paths must not allocate in steady
// state. Subtest names carry the annotated function names so a CS020
// finding and the failing test point at the same function; each run drives
// one framed round trip (producer frame event + data batch, consumer frame
// event + aligned drain) so both sides' entries are exercised together.

func TestHotpathAllocFree(t *testing.T) {
	const payload = 63 // + 1 header = one 64-unit working set per run

	newEdgeCoder := func(t *testing.T, coder string) (*HeaderInserter, *AlignmentManager) {
		t.Helper()
		q := queue.MustNew(1, queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: time.Second, Coder: coder})
		// Each run produces and consumes exactly one working set, so the
		// exchange never waits; sequential mode keeps even a pathological
		// schedule out of the timer machinery.
		q.SetSequential()
		return NewHeaderInserter(q), NewAlignmentManager(q, 0)
	}
	newEdge := func(t *testing.T) (*HeaderInserter, *AlignmentManager) {
		t.Helper()
		return newEdgeCoder(t, "")
	}

	assertZero := func(t *testing.T, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%.1f allocs/run, want 0 (the static CS020 gate should have caught this; see internal/hotpath)", avg)
		}
	}

	t.Run("HeaderInserter.PushData+AlignmentManager.PopN", func(t *testing.T) {
		hi, am := newEdge(t)
		vs := make([]uint32, payload)
		for i := range vs {
			vs[i] = uint32(i) + 1
		}
		dst := make([]uint32, payload)
		assertZero(t, func() {
			hi.NewFrameComputation(0)
			hi.q.PushDataN(vs)
			am.NewFrameComputation(0)
			am.PopN(dst)
		})
		if got := am.Stats(); got.PaddedItems != 0 || got.DiscardedItems != 0 {
			t.Errorf("alignment disturbed during alloc run: %+v", got)
		}
	})

	// Header encode/decode dispatch through the LDPC backend must stay
	// alloc-free too (the coder is resolved once at queue construction).
	t.Run("HeaderInserter.PushData+AlignmentManager.PopN/ldpc", func(t *testing.T) {
		hi, am := newEdgeCoder(t, "ldpc")
		vs := make([]uint32, payload)
		for i := range vs {
			vs[i] = uint32(i) + 1
		}
		dst := make([]uint32, payload)
		assertZero(t, func() {
			hi.NewFrameComputation(0)
			hi.q.PushDataN(vs)
			am.NewFrameComputation(0)
			am.PopN(dst)
		})
		if got := am.Stats(); got.PaddedItems != 0 || got.DiscardedItems != 0 {
			t.Errorf("alignment disturbed during alloc run: %+v", got)
		}
	})

	t.Run("HeaderInserter.NewFrameComputation+AlignmentManager.Pop", func(t *testing.T) {
		hi, am := newEdge(t)
		vs := make([]uint32, payload)
		for i := range vs {
			vs[i] = uint32(i) + 1
		}
		assertZero(t, func() {
			hi.NewFrameComputation(0)
			hi.q.PushDataN(vs)
			am.NewFrameComputation(0)
			for i := 0; i < payload; i++ {
				am.Pop()
			}
		})
		if got := am.Stats(); got.PaddedItems != 0 || got.DiscardedItems != 0 {
			t.Errorf("alignment disturbed during alloc run: %+v", got)
		}
	})
}

// TestTraceDisabledNoAllocs pins the zero-allocation contract of the
// guarded pop path, with tracing disabled (the nil-ring branch) and
// enabled (in-place ring writes).
func TestTraceDisabledNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"disabled", nil},
		{"enabled", obs.NewTracer(1, 1<<10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := queue.MustNew(0, queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 0})
			q.SetTrace(tc.tracer.Ring(0), tc.tracer.Ring(0))
			hi := NewHeaderInserter(q)
			hi.SetTrace(tc.tracer.Ring(0))
			hi.NewFrameComputation(0)
			for i := 0; i < 128; i++ {
				q.Push(queue.DataUnit(uint32(i)))
			}
			q.Flush()
			am := NewAlignmentManager(q, 0)
			am.SetTrace(tc.tracer.Ring(0))
			am.NewFrameComputation(0)
			if allocs := testing.AllocsPerRun(100, func() { am.Pop() }); allocs != 0 {
				t.Errorf("guarded pop allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestHealthArmedNoAllocs pins the zero-allocation contract of the
// guarded pop path with the full runtime-health layer armed: queue
// latency shards, the AM detector, and live trace rings.
func TestHealthArmedNoAllocs(t *testing.T) {
	tracer := obs.NewTracer(2, 1<<10)
	h := obs.NewHealth(2)
	q := queue.MustNew(0, queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 0})
	q.SetTrace(tracer.Ring(0), tracer.Ring(1))
	q.SetLatency(h.QueueShards(0, 1))
	hi := NewHeaderInserter(q)
	hi.SetTrace(tracer.Ring(0))
	hi.NewFrameComputation(0)
	for i := 0; i < 128; i++ {
		q.Push(queue.DataUnit(uint32(i)))
	}
	q.Flush()
	am := NewAlignmentManager(q, 0)
	am.SetTrace(tracer.Ring(1))
	am.SetDetector(h.NewDetector(1, 0, 1))
	am.NewFrameComputation(0)
	if allocs := testing.AllocsPerRun(100, func() { am.Pop() }); allocs != 0 {
		t.Errorf("health-armed guarded pop allocates %.1f objects/op, want 0", allocs)
	}
}
