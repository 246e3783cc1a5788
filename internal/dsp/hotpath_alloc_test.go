package dsp

import "testing"

// Runtime cross-validation of the static hot-path proof (internal/hotpath):
// the //hotpath:entry kernels must not allocate. Subtest names are the
// annotated function names, so a CS020 finding and the failing test point
// at the same kernel.

func TestHotpathAllocFree(t *testing.T) {
	assertZero := func(t *testing.T, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%.1f allocs/run, want 0 (the static CS020 gate should have caught this; see internal/hotpath)", avg)
		}
	}

	t.Run("DCT8", func(t *testing.T) {
		var dst, src [8]float64
		for i := range src {
			src[i] = float64(i)
		}
		assertZero(t, func() { DCT8(&dst, &src) })
	})

	t.Run("DCT2D", func(t *testing.T) {
		var block [64]float64
		for i := range block {
			block[i] = float64(i % 9)
		}
		assertZero(t, func() { DCT2D(&block) })
	})

	t.Run("IDCT2D", func(t *testing.T) {
		var block [64]float64
		for i := range block {
			block[i] = float64(i % 9)
		}
		assertZero(t, func() { IDCT2D(&block) })
	})

	t.Run("FIR.Process", func(t *testing.T) {
		f := MustNewFIR(LowPassTaps(31, 0.2))
		x := 0.0
		assertZero(t, func() {
			x = f.Process(x + 1)
		})
	})

	t.Run("ComplexFIR.Process", func(t *testing.T) {
		taps := LowPassTaps(31, 0.2)
		f := MustNewComplexFIR(taps, taps)
		var re, im float64
		assertZero(t, func() {
			re, im = f.Process(re+1, im-1)
		})
	})

	// AllocsPerRun's warm-up call absorbs fillHist's one-time scratch
	// growth; every steady-state batch must then be alloc-free.
	t.Run("FIR.ProcessBatch", func(t *testing.T) {
		f := MustNewFIR(LowPassTaps(31, 0.2))
		src := make([]float64, 64)
		dst := make([]float64, 64)
		for i := range src {
			src[i] = float64(i % 7)
		}
		assertZero(t, func() { f.ProcessBatch(dst, src) })
	})
}
