package sim

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"commguard/internal/apps"
	"commguard/internal/stream"
)

// workloadDigest fingerprints an instance's shared workload: its source
// tape and its Reference.
func workloadDigest(t *testing.T, inst *apps.Instance) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	found := false
	for _, n := range inst.Graph.Sources() {
		if src, ok := n.F.(*stream.Source); ok {
			found = true
			for _, v := range src.Tape() {
				word(uint64(v))
			}
		}
	}
	if !found {
		t.Fatalf("%s has no stream.Source", inst.Name)
	}
	for _, v := range inst.Reference {
		word(math.Float64bits(v))
	}
	return h.Sum64()
}

// Every instance of one config shares its source tape and Reference, so
// no run may write to either. Four fault-injected runs at once on the
// concurrent engine, per scheme, must leave the shared workload bit for
// bit as it was; under -race a write would also race with the other
// instances' reads.
func TestSharedWorkloadNeverWritten(t *testing.T) {
	smallJPEG := apps.Builder{Name: "jpeg", New: func() (*apps.Instance, error) {
		return apps.NewJPEG(apps.JPEGConfig{W: 128, H: 32, Quality: 75})
	}}
	for _, b := range []apps.Builder{smallJPEG, smallMP3(), smallComplexFIR()} {
		inst, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		before := workloadDigest(t, inst)
		for _, p := range []Protection{CommGuard, ABFT, SoftwareQueue} {
			const runs = 4
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					inst, err := b.New()
					if err == nil {
						_, err = Run(inst, Config{Protection: p, MTBE: 64_000, Seed: int64(i + 1)}, nil)
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s/%s: %v", b.Name, p, err)
				}
			}
			if after := workloadDigest(t, inst); after != before {
				t.Fatalf("%s/%s: shared workload changed during the runs", b.Name, p)
			}
		}
	}
}
