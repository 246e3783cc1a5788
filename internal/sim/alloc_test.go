//go:build !race

// Under -race, sync.Pool drops a random quarter of its Puts, so a warm run
// cannot be counted on to find every ring pooled.

package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"commguard/internal/apps"
	"commguard/internal/queue"
)

// A warm run takes its queue rings from the pool its predecessor filled,
// so it allocates at least the ring bytes less than a cold one.
func TestWarmRunReusesRings(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	b, _ := apps.ByName("audiobeamformer")
	cfg := Config{Protection: CommGuard, Sequential: true}
	edges := 0
	allocated := func() uint64 {
		inst, err := b.New() // memoized workload: only the first New generates it
		if err != nil {
			t.Fatal(err)
		}
		edges = len(inst.Graph.Edges)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(inst, cfg, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated()
	runtime.GC()
	runtime.GC()
	cold := allocated()
	warm := allocated()
	// Sequential sizing only grows the default rings.
	d := queue.DefaultConfig()
	ringBytes := uint64(edges * d.WorkingSets * d.WorkingSetUnits * 8)
	if warm+ringBytes >= cold {
		t.Errorf("warm run allocated %d B, cold run %d B: want at least the %d edges' ring bytes (%d B) less", warm, cold, edges, ringBytes)
	}
}
