package apps

import (
	"slices"
	"sync"
	"testing"

	"commguard/internal/stream"
)

// workloadCase pins one builtin benchmark's workload: the default config
// generated cold (bypassing the cache), a config whose tape differs, and
// invalid configs with the cache key each would have used.
type workloadCase struct {
	cold  func() (workload, error)
	other func() (*Instance, error)
	bad   []badConfig
}

type badConfig struct {
	key any
	new func() (*Instance, error)
}

func tapeOnly(tape []uint32) func() (workload, error) {
	return func() (workload, error) { return workload{tape: tape}, nil }
}

func workloadCases() map[string]workloadCase {
	bf := BeamformerConfig{Channels: 1, Samples: 10}
	vc := VocoderConfig{Bands: 1, Samples: 10}
	cf := ComplexFIRConfig{Samples: 0, Stages: 1, Taps: 1}
	ff := FFTConfig{Points: 60, Blocks: 2}
	jDims := JPEGConfig{W: 10, H: 8, Quality: 75}
	jQuality := JPEGConfig{W: 64, H: 8, Quality: 0}
	mp := MP3Config{Frames: 0}
	da := DoAllConfig{Workers: 1, Tasks: 10, IterationsPerTask: 4}
	return map[string]workloadCase{
		"audiobeamformer": {
			cold: tapeOnly(beamformerTape(DefaultBeamformerConfig())),
			other: func() (*Instance, error) {
				c := DefaultBeamformerConfig()
				c.Delay++
				return NewBeamformer(c)
			},
			bad: []badConfig{{bf, func() (*Instance, error) { return NewBeamformer(bf) }}},
		},
		"channelvocoder": {
			cold: tapeOnly(vocoderTape(DefaultVocoderConfig())),
			other: func() (*Instance, error) {
				c := DefaultVocoderConfig()
				c.Samples /= 2
				return NewVocoder(c)
			},
			bad: []badConfig{{vc, func() (*Instance, error) { return NewVocoder(vc) }}},
		},
		"complex-fir": {
			cold: tapeOnly(complexFIRTape(DefaultComplexFIRConfig())),
			other: func() (*Instance, error) {
				c := DefaultComplexFIRConfig()
				c.Samples /= 2
				return NewComplexFIR(c)
			},
			bad: []badConfig{{cf, func() (*Instance, error) { return NewComplexFIR(cf) }}},
		},
		"fft": {
			cold: tapeOnly(fftTape(DefaultFFTConfig())),
			other: func() (*Instance, error) {
				c := DefaultFFTConfig()
				c.Points *= 2
				return NewFFT(c)
			},
			bad: []badConfig{{ff, func() (*Instance, error) { return NewFFT(ff) }}},
		},
		"jpeg": {
			cold: func() (workload, error) { return jpegWorkload(DefaultJPEGConfig()) },
			other: func() (*Instance, error) {
				c := DefaultJPEGConfig()
				c.Quality = 50
				return NewJPEG(c)
			},
			bad: []badConfig{
				{jDims, func() (*Instance, error) { return NewJPEG(jDims) }},
				// Valid dimensions: this one fails inside the generator.
				{jQuality, func() (*Instance, error) { return NewJPEG(jQuality) }},
			},
		},
		"mp3": {
			cold: func() (workload, error) { return mp3Workload(DefaultMP3Config()) },
			other: func() (*Instance, error) {
				c := DefaultMP3Config()
				c.Frames = 10
				return NewMP3(c)
			},
			bad: []badConfig{{mp, func() (*Instance, error) { return NewMP3(mp) }}},
		},
		"doall": {
			cold: tapeOnly(doAllTape(DefaultDoAllConfig())),
			other: func() (*Instance, error) {
				c := DefaultDoAllConfig()
				c.Tasks /= 2
				return NewDoAll(c)
			},
			bad: []badConfig{{da, func() (*Instance, error) { return NewDoAll(da) }}},
		},
	}
}

// sourceTape returns the tape of the instance's stream.Source, or nil.
func sourceTape(inst *Instance) []uint32 {
	for _, n := range inst.Graph.Sources() {
		if src, ok := n.F.(*stream.Source); ok {
			return src.Tape()
		}
	}
	return nil
}

func cached(key any) bool {
	workloads.mu.Lock()
	defer workloads.mu.Unlock()
	_, ok := workloads.m[key]
	return ok
}

// Every builtin shares one workload per config across instances, keys it
// by the whole config, caches exactly what a cold generation produces, and
// never caches a config that fails.
func TestWorkloadSharedPerConfig(t *testing.T) {
	cases := workloadCases()
	for _, b := range AllBuiltin() {
		c, ok := cases[b.Name]
		if !ok {
			t.Errorf("%s: no workload case", b.Name)
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			first, err := b.New()
			if err != nil {
				t.Fatal(err)
			}
			second, err := b.New()
			if err != nil {
				t.Fatal(err)
			}
			tape, tape2 := sourceTape(first), sourceTape(second)
			if len(tape) == 0 || len(tape2) == 0 {
				t.Fatal("no source tape")
			}
			if &tape2[0] != &tape[0] {
				t.Error("two instances do not share the source tape")
			}
			if first.Graph == second.Graph || first.Graph.Nodes[0].F == second.Graph.Nodes[0].F {
				t.Error("two instances share graph state")
			}
			if (first.Reference == nil) != (second.Reference == nil) {
				t.Fatal("Reference present on only one instance")
			}
			if first.Reference != nil && &first.Reference[0] != &second.Reference[0] {
				t.Error("two instances do not share Reference")
			}

			cold, err := c.cold()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tape, cold.tape) {
				t.Error("cached tape differs from a cold generation")
			}
			if !slices.Equal(first.Reference, cold.ref) {
				t.Error("cached Reference differs from a cold generation")
			}

			other, err := c.other()
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(sourceTape(other), tape) {
				t.Error("a different config got the same tape")
			}

			for _, bad := range c.bad {
				if _, err := bad.new(); err == nil {
					t.Errorf("invalid config %+v accepted", bad.key)
				}
				if cached(bad.key) {
					t.Errorf("invalid config %+v left a cache entry", bad.key)
				}
			}
		})
	}
}

// Concurrent first requests for one config generate it once: every
// instance gets the same tape.
func TestWorkloadConcurrentFirstUse(t *testing.T) {
	cfg := MP3Config{Frames: 3}
	const n = 4
	tapes := make([][]uint32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, err := NewMP3(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			tapes[i] = sourceTape(inst)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(tapes[i]) == 0 || &tapes[i][0] != &tapes[0][0] {
			t.Errorf("instance %d got its own tape", i)
		}
	}
}

// BenchmarkBuilderNew measures Builder.New for each builtin once its
// workload is cached: the per-run cost every campaign job pays. A cache
// that stops hitting puts workload generation (about 35 ms for jpeg) back
// into every op. The committed numbers live in BENCH_micro.txt at the
// repository root, and cmd/benchdiff gates every row of it.
func BenchmarkBuilderNew(b *testing.B) {
	for _, bl := range AllBuiltin() {
		b.Run(bl.Name, func(b *testing.B) {
			if _, err := bl.New(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := bl.New()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = inst
			}
		})
	}
}

var benchSink *Instance
