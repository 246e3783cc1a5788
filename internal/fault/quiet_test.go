package fault

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkQuiet runs Quiet(w, n) on one injector and Advance(w) calls on a
// twin in the same state until one returns an error or n have returned
// nil. Quiet must commit exactly the nil-returning windows, leave now,
// nextAt, the tallies and the RNG where the twin's are, and (when it
// stopped short of n) leave the error for the next Advance(w).
func checkQuiet(t *testing.T, quiet, twin *Injector, w, n int) {
	t.Helper()
	got := quiet.Quiet(w, n)
	want := 0
	var fired []Class
	for want < n {
		if fired = twin.Advance(w); fired != nil {
			break
		}
		want++
	}
	if got != want {
		t.Fatalf("Quiet(%d, %d) = %d, want %d (now %v, nextAt %v)", w, n, got, want, twin.now, twin.nextAt)
	}
	if fired != nil {
		if again := quiet.Advance(w); !slices.Equal(again, fired) {
			t.Fatalf("Advance(%d) after Quiet = %v, want %v", w, again, fired)
		}
	}
	if math.Float64bits(quiet.now) != math.Float64bits(twin.now) ||
		math.Float64bits(quiet.nextAt) != math.Float64bits(twin.nextAt) ||
		quiet.counts != twin.counts {
		t.Fatalf("state after Quiet: now %v nextAt %v counts %v, Advance: now %v nextAt %v counts %v",
			quiet.now, quiet.nextAt, quiet.counts, twin.now, twin.nextAt, twin.counts)
	}
	if a, b := quiet.rng.Int63(), twin.rng.Int63(); a != b {
		t.Fatalf("RNG diverged after Quiet: next draw %d, want %d", a, b)
	}
}

// twins returns two injectors in the same state: pre windows of pw
// instructions already advanced on each.
func twins(mtbe float64, seed int64, pre, pw int) (*Injector, *Injector) {
	a := NewInjector(mtbe, seed, DefaultModel(false))
	b := NewInjector(mtbe, seed, DefaultModel(false))
	for range pre {
		a.Advance(pw)
		b.Advance(pw)
	}
	return a, b
}

func TestQuietMatchesAdvanceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		mtbe := []float64{0, -1, 50, 700, 64000, 512000}[r.Intn(6)]
		w := 1 + r.Intn(400)
		a, b := twins(mtbe, r.Int63(), r.Intn(300), 1+r.Intn(400))
		// Several runs back to back, as one iteration's runs follow each
		// other, each resumed after the error that ended the last.
		for range 4 {
			checkQuiet(t, a, b, w, r.Intn(300))
		}
	}
}

// TestQuietBoundaries places the next error exactly at, just before and
// just after a window boundary: Advance fires once now reaches nextAt, so
// a window ending exactly on nextAt is not quiet.
func TestQuietBoundaries(t *testing.T) {
	const w = 37
	for k := 0; k <= 5; k++ {
		for _, nudge := range []float64{-0.5, 0, 0.5, math.Inf(-1), math.Inf(1)} {
			a, b := twins(1000, int64(k), 3, 11)
			at := a.now + float64(k*w)
			switch {
			case math.IsInf(nudge, -1):
				at = math.Nextafter(at, math.Inf(-1))
			case math.IsInf(nudge, 1):
				at = math.Nextafter(at, math.Inf(1))
			default:
				at += nudge
			}
			a.nextAt, b.nextAt = at, at
			checkQuiet(t, a, b, w, 8)
		}
	}
	// Far along, where a float64 step no longer lands on every integer.
	a, b := twins(1000, 3, 0, 1)
	a.now, b.now = 1<<53-64, 1<<53-64
	a.nextAt, b.nextAt = 1<<53+100, 1<<53+100
	checkQuiet(t, a, b, 3, 100)
}

func TestQuietDisabledAndDegenerate(t *testing.T) {
	a, b := twins(0, 1, 10, 50)
	checkQuiet(t, a, b, 50, 1000)
	if got := a.Quiet(0, 9); got != 9 {
		t.Errorf("Quiet(0, 9) = %d, want 9 (an empty window never fires)", got)
	}
	if got := a.Quiet(-4, 9); got != 9 {
		t.Errorf("Quiet(-4, 9) = %d, want 9", got)
	}
	if got := a.Quiet(5, 0); got != 0 {
		t.Errorf("Quiet(5, 0) = %d, want 0", got)
	}
	if a.now != b.now {
		t.Errorf("degenerate Quiet calls committed instructions: now %v, want %v", a.now, b.now)
	}
	a, b = twins(-1, 2, 0, 0)
	checkQuiet(t, a, b, 7, 300)
}

// FuzzInjectorQuiet checks the Quiet/Advance equivalence on arbitrary
// injector states; boundary > 0 moves the next error onto the end of
// the boundary-th window.
func FuzzInjectorQuiet(f *testing.F) {
	f.Add(int64(1), uint32(5000), uint16(300), uint16(40), uint16(200), uint8(0))
	f.Add(int64(2), uint32(0), uint16(0), uint16(1), uint16(256), uint8(0))
	f.Add(int64(3), uint32(700), uint16(17), uint16(9), uint16(64), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, mtbe uint32, pre, w, n uint16, boundary uint8) {
		a, b := twins(float64(mtbe), seed, int(pre%1024), int(w)+1)
		if boundary > 0 && mtbe > 0 {
			at := a.now + float64(int(boundary)*(int(w)+1))
			a.nextAt, b.nextAt = at, at
		}
		checkQuiet(t, a, b, int(w)+1, int(n%1024))
	})
}
