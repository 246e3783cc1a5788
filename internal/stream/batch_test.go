package stream

import (
	"testing"

	"commguard/internal/fault"
	"commguard/internal/queue"
)

// f32Tape builds a tape of n float32-carrying items for ABFT tests
// (the F32 checksum contract is about float payloads, not raw words).
func f32Tape(n int) []uint32 {
	tape := make([]uint32, n)
	for i := range tape {
		tape[i] = F32Bits(float32(i%101) * 0.25)
	}
	return tape
}

// The ABFT scheme's observable contract: output-side data flips are
// detected by the checksum mismatch and repaired by recompute, while
// input-side flips flow through the kernel exactly as they do on the
// unprotected path (ABFT is blind to input corruption — the scheme's
// documented coverage gap). So with a flip-only fault model, the set of
// outputs an ABFT run corrupts must be a strict subset of what the same
// seed corrupts unprotected, with bit-identical values on the shared
// (input-flip) corruptions.
func TestEngineABFTCorrectsOutputFlips(t *testing.T) {
	const mtbe = 150
	var model fault.Model
	model.Weights[fault.DataBitflip] = 1

	run := func(abft, inject bool) ([]uint32, *RunStats) {
		g := NewGraph()
		kernel := NewABFTFilter("gain", 4, 4, 25, func(in, out [][]uint32) float64 {
			s := 0.0
			for i, v := range in[0] {
				y := F32Bits(1.5 * BitsF32(v))
				out[0][i] = y
				s += float64(BitsF32(y))
			}
			return s
		}, func(out [][]uint32) float64 { return ChecksumF32(out[0]) })
		sink := NewSink("sink", 4)
		if _, err := g.Chain(NewSource("src", 4, f32Tape(1024)), kernel, sink); err != nil {
			t.Fatal(err)
		}
		qcfg := queue.Config{WorkingSets: 4, WorkingSetUnits: 128, ProtectPointers: true, Timeout: 100}
		cfg := EngineConfig{Transport: &PlainTransport{Queue: qcfg}, ABFT: abft}
		if inject {
			// Confine injection to the kernel's core (topo order: src=0,
			// kernel=1, sink=2) so every flip lands on the protected
			// filter's ports and the subset relation below is exact.
			cfg.NewInjector = func(core int) *fault.Injector {
				if core != 1 {
					return nil
				}
				return fault.NewInjector(mtbe, fault.CoreSeed(31, core), model)
			}
		}
		eng, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.RunSequential()
		if err != nil {
			t.Fatal(err)
		}
		return sink.Collected(), stats
	}

	clean, _ := run(false, false)
	faulty, _ := run(false, true)
	protected, stats := run(true, true)
	if len(clean) != len(faulty) || len(clean) != len(protected) {
		t.Fatalf("lengths diverged: clean %d, faulty %d, protected %d",
			len(clean), len(faulty), len(protected))
	}

	faultyDiff := map[int]bool{}
	for i := range clean {
		if faulty[i] != clean[i] {
			faultyDiff[i] = true
		}
	}
	protectedDiffs := 0
	for i := range clean {
		if protected[i] == clean[i] {
			continue
		}
		protectedDiffs++
		if !faultyDiff[i] {
			t.Errorf("output %d corrupted only under ABFT (protected %#x, faulty %#x, clean %#x)",
				i, protected[i], faulty[i], clean[i])
		}
		if protected[i] != faulty[i] {
			t.Errorf("output %d: input-flip corruption diverged: protected %#x, faulty %#x",
				i, protected[i], faulty[i])
		}
	}
	if len(faultyDiff) == 0 {
		t.Fatal("seed produced no corruption at all; the test exercises nothing")
	}
	if protectedDiffs >= len(faultyDiff) {
		t.Errorf("ABFT repaired nothing: %d corrupted outputs protected vs %d unprotected",
			protectedDiffs, len(faultyDiff))
	}

	var abftStats ABFTStats
	for _, c := range stats.Cores {
		abftStats.Add(c.ABFT)
	}
	if abftStats.Corrections == 0 {
		t.Error("no corrections recorded despite repaired outputs")
	}
	// Every kernel firing runs checksummed: ABFTChecksumOpsPerItem per
	// pushed item over the full 1024-item tape (Table-3-style accounting).
	if want := uint64(fault.ABFTChecksumOpsPerItem * 1024); abftStats.ChecksumOps != want {
		t.Errorf("ChecksumOps = %d, want %d", abftStats.ChecksumOps, want)
	}
	if abftStats.RecomputeOps == 0 {
		t.Error("corrections recorded but no recompute cost charged")
	}
}

// nopOut discards pushed items.
type nopOut struct{}

func (nopOut) PushN([]uint32) {}
func (nopOut) End()           {}

// Runtime cross-validation of the static hot-path proof for the
// engine-side ABFT checksum helpers (//hotpath:entry in batch.go) and for
// a firing (thread.fire) of a FuncFilter kernel and of a builtin.
func TestHotpathAllocFree(t *testing.T) {
	scale := NewFuncFilter("scale", 4, 4, 25, func(in, out [][]uint32) {
		for i, v := range in[0] {
			out[0][i] = 3 * v
		}
	})
	for _, f := range []Filter{scale, NewIdentity("identity", 4)} {
		th := transitThread(t, f, &fakeIn{}, nopOut{})
		if avg := testing.AllocsPerRun(100, func() { th.fire() }); avg != 0 {
			t.Errorf("%s firing: %.1f allocs/run, want 0", f.Name(), avg)
		}
	}

	buf := make([]uint32, 256)
	for i := range buf {
		buf[i] = F32Bits(float32(i) * 0.5)
	}
	if avg := testing.AllocsPerRun(100, func() { ChecksumF32(buf) }); avg != 0 {
		t.Errorf("ChecksumF32: %.1f allocs/run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { ChecksumU32(buf) }); avg != 0 {
		t.Errorf("ChecksumU32: %.1f allocs/run, want 0", avg)
	}
}
