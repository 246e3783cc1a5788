package stream

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"commguard/internal/queue"
)

// TestCancelUnwindsStarvedConsumer models the hang the campaign watchdog
// exists for: a mid-graph filter wedges (its kernel stops returning), so its
// downstream consumer parks inside the §5.1 wait loop of a queue configured
// to block indefinitely. Closing the cancel channel must unwind every node
// goroutine — the parked consumer included — and surface ErrCancelled.
func TestCancelUnwindsStarvedConsumer(t *testing.T) {
	cancel := make(chan struct{})
	qcfg := queue.Config{
		WorkingSets: 2, WorkingSetUnits: 4, ProtectPointers: true,
		Timeout: 0, // block indefinitely: only cancellation can unwind
		Cancel:  cancel,
	}

	fired := 0
	wedge := NewFuncFilter("wedge", 1, 1, 20, func(in, out [][]uint32) {
		if fired < 4 {
			copy(out[0], in[0])
			fired++
			return
		}
		// The core wedges mid-computation (a livelocked loop): nothing
		// reaches the sink again, and this kernel only returns once the
		// run-level cancel fires.
		<-cancel
	})

	g := NewGraph()
	sink := NewSink("sink", 1)
	if _, err := g.Chain(NewSource("src", 1, seqData(64)), wedge, sink); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{Transport: &PlainTransport{Queue: qcfg}, Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.Run()
		errCh <- err
	}()

	// Give the sink time to drain the four delivered items and park on the
	// starved queue, then fire the watchdog's cancel.
	select {
	case err := <-errCh:
		t.Fatalf("run finished before cancellation: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(cancel)

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Run returned %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unwind the engine")
	}

	// All node goroutines must have exited (no leaks from the §5.1 loops).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked after cancellation: %d, baseline %d", n, before)
	}
}

// TestCancelSequentialRun: the deterministic single-goroutine engine stops
// at the next iteration boundary and reports ErrCancelled.
func TestCancelSequentialRun(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel) // cancelled before it starts: zero iterations run
	g := NewGraph()
	sink := NewSink("sink", 1)
	if _, err := g.Chain(NewSource("src", 1, seqData(16)), NewIdentity("id", 1), sink); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{
		Transport: &PlainTransport{Queue: queue.Config{WorkingSets: 4, WorkingSetUnits: 32, ProtectPointers: true}},
		Cancel:    cancel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSequential(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunSequential returned %v, want ErrCancelled", err)
	}
	if got := sink.Collected(); len(got) != 0 {
		t.Errorf("cancelled-before-start run still delivered %d items", len(got))
	}
}
