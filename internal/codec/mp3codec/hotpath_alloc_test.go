package mp3codec

import "testing"

// Runtime cross-validation of the static hot-path proof (internal/hotpath):
// the //hotpath:entry MDCT kernels must not allocate. Subtest names are
// the annotated function names, so a CS020 finding and the failing test
// point at the same kernel.

func TestHotpathAllocFree(t *testing.T) {
	assertZero := func(t *testing.T, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%.1f allocs/run, want 0 (the static CS020 gate should have caught this; see internal/hotpath)", avg)
		}
	}

	var x [2 * N]float64
	for i := range x {
		x[i] = float64(i%13) - 6
	}

	t.Run("MDCT", func(t *testing.T) {
		var out [N]float64
		assertZero(t, func() { MDCT(&x, &out) })
	})

	t.Run("IMDCT", func(t *testing.T) {
		var coeffs [N]float64
		MDCT(&x, &coeffs)
		var out [2 * N]float64
		assertZero(t, func() { IMDCT(&coeffs, &out) })
	})

	t.Run("OverlapAdd", func(t *testing.T) {
		var prevTail [N]float64
		var out [N]float64
		assertZero(t, func() { OverlapAdd(&prevTail, &x, &out) })
	})
}
