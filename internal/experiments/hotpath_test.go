package experiments

import "testing"

// TestHotpathBaselinesArePerItem guards the unit of the pre-overhaul
// baselines Render divides by: every committed transit variant measures
// well under 100 ns/item, so a value in the thousands is a whole-benchmark
// ns/op mislabelled as a per-item cost, and the printed speedup would be
// meaningless.
func TestHotpathBaselinesArePerItem(t *testing.T) {
	for name, ns := range hotpathBaselines {
		if ns <= 0 || ns >= 1000 {
			t.Errorf("hotpathBaselines[%q] = %v; want a per-item transit cost in (0, 1000) ns", name, ns)
		}
	}
}
