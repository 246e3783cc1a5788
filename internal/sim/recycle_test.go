package sim

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"commguard/internal/apps"
	"commguard/internal/stream"
)

// sameRun reports the first difference between two runs that must be bit
// for bit equal: output, quality, per-core stats (wall time excluded),
// queue stats and the CommGuard module counters.
func sameRun(a, b *Result) string {
	if !sameOutput(a.Output, b.Output) {
		return "output"
	}
	if math.Float64bits(a.Quality) != math.Float64bits(b.Quality) {
		return "quality"
	}
	if a.Run.Iterations != b.Run.Iterations || !reflect.DeepEqual(a.Run.Cores, b.Run.Cores) {
		return "per-core stats"
	}
	if !reflect.DeepEqual(a.Run.Queues, b.Run.Queues) {
		return "queue stats"
	}
	if !reflect.DeepEqual(a.Guard, b.Guard) {
		return "CommGuard stats"
	}
	return ""
}

func sameOutput(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// selfReference is the error-free sequential output of a benchmark
// without a built-in reference (nil for one with it).
func selfReference(t *testing.T, b apps.Builder) []float64 {
	t.Helper()
	inst, err := b.New()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Reference != nil {
		return nil
	}
	res, err := Run(inst, Config{Protection: ErrorFree, Sequential: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

func runOnce(t *testing.T, b apps.Builder, cfg Config, ref []float64) *Result {
	t.Helper()
	inst, err := b.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(inst, cfg, ref)
	if err != nil {
		t.Fatalf("%s %v seed %d: %v", b.Name, cfg.Protection, cfg.Seed, err)
	}
	return res
}

// A run on rings recycled from a faulty run must equal a run on freshly
// allocated rings, bit for bit: New hands every queue an all-zero ring
// whatever the ring's last owner left in it. The software queue is the
// sharp case, since its corrupted pointers and offsets read slots no
// producer wrote in this run.
func TestRecycledRingsMatchFreshOnes(t *testing.T) {
	schemes := []Protection{SoftwareQueue, CommGuard, ABFT}
	for _, b := range apps.AllBuiltin() {
		ref := selfReference(t, b)
		for _, scheme := range schemes {
			for _, seed := range []int64{1, 2} {
				cfg := Config{Protection: scheme, MTBE: 64_000, Seed: seed, Sequential: true}
				// Two collections empty the ring pools (the first moves
				// pooled rings to the victim cache, the second frees them).
				runtime.GC()
				runtime.GC()
				fresh := runOnce(t, b, cfg, ref)
				// An unrelated faulty run of the same geometry leaves its
				// garbage in the rings the next run takes over.
				runOnce(t, b, Config{Protection: SoftwareQueue, MTBE: 8_000, Seed: 100 + seed, Sequential: true}, ref)
				recycled := runOnce(t, b, cfg, ref)
				if d := sameRun(fresh, recycled); d != "" {
					t.Errorf("%s %v seed %d: run on recycled rings differs from a fresh one in its %s", b.Name, scheme, seed, d)
				}
			}
		}
	}
}

// Runs on both engines at once share the ring pools, and a cancelled run's
// rings go straight back into use: every error-free output must still
// equal the sequential reference, and under -race no ring may be touched
// by two runs.
func TestConcurrentRunsShareRingPools(t *testing.T) {
	b := smallComplexFIR()
	want := runOnce(t, b, Config{Protection: ErrorFree, Sequential: true}, nil).Output
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 {
				cfg := Config{Protection: []Protection{ErrorFree, ReliableQueue, CommGuard}[i], Sequential: (g+i)%2 == 0}
				inst, err := b.New()
				if err != nil {
					t.Error(err)
					return
				}
				res, err := Run(inst, cfg, nil)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if !sameOutput(res.Output, want) {
					t.Errorf("goroutine %d: error-free %v run (sequential=%v) differs from the sequential reference", g, cfg.Protection, cfg.Sequential)
				}
			}
		}()
	}
	// The cancelled runs are of a longer benchmark, so the cancel lands
	// mid-run.
	long, _ := apps.ByName("audiobeamformer")
	longWant := runOnce(t, long, Config{Protection: ErrorFree, Sequential: true}, nil).Output
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, sequential := range []bool{false, true} {
			cancel := make(chan struct{})
			inst, err := long.New()
			if err != nil {
				t.Error(err)
				return
			}
			timer := time.AfterFunc(time.Millisecond, func() { close(cancel) })
			_, err = Run(inst, Config{Protection: CommGuard, MTBE: 20_000, Seed: 3, Sequential: sequential, Cancel: cancel}, nil)
			timer.Stop()
			switch {
			case errors.Is(err, stream.ErrCancelled):
			case err == nil:
				t.Logf("sequential=%v: the run ended before its cancel fired", sequential)
			default:
				t.Errorf("cancelled run: %v", err)
			}
			// The next run of this geometry takes the cancelled run's rings.
			inst, err = long.New()
			if err != nil {
				t.Error(err)
				return
			}
			res, err := Run(inst, Config{Protection: CommGuard, Sequential: sequential}, nil)
			if err != nil {
				t.Errorf("run after a cancelled one: %v", err)
				return
			}
			if !sameOutput(res.Output, longWant) {
				t.Errorf("sequential=%v: error-free run after a cancelled one differs from the sequential reference", sequential)
			}
		}
	}()
	wg.Wait()
}
