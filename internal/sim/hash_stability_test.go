package sim

import (
	"testing"

	"commguard/internal/obs"
	"commguard/internal/queue"
)

// The Coder fields added to sim.Config and queue.Config serialize with
// omitempty precisely so that every configuration that existed before
// the pluggable-coder change keeps its ConfigHash: journals, manifests
// and baselines keyed by these hashes must survive the upgrade. The
// expected values are the hashes these configs produced before the
// Coder fields existed.
func TestConfigHashStability(t *testing.T) {
	cases := []struct {
		name string
		cfg  any
		want string
	}{
		{
			name: "sim-default",
			cfg:  Config{Protection: CommGuard, MTBE: 512e3, Seed: 1, FrameScale: 1},
			want: "a341b20d77a76864",
		},
		{
			name: "sim-sequential",
			cfg:  Config{Protection: ReliableQueue, MTBE: 64e3, Seed: 7, FrameScale: 2, Sequential: true},
			want: "1e075681294fc9d1",
		},
		{
			name: "queue-default",
			cfg:  queue.DefaultConfig(),
			want: "11a65a8a9af1f7a4",
		},
	}
	for _, tc := range cases {
		if got := obs.ConfigHash(tc.cfg); got != tc.want {
			t.Errorf("%s: ConfigHash = %s, want %s (a default-config hash changed; existing journals and baselines would be orphaned)", tc.name, got, tc.want)
		}
	}
	// A non-empty coder must change the hash (it is a real config axis).
	base := Config{Protection: CommGuard, MTBE: 512e3, Seed: 1, FrameScale: 1}
	withCoder := base
	withCoder.Coder = "ldpc-48-3-9"
	if obs.ConfigHash(withCoder) == obs.ConfigHash(base) {
		t.Error("setting Coder did not change the config hash")
	}
}

// Traced runs used to spell their tracer TraceEvents = -1; Trace alone now
// enables the same tracer, and the run manifest hashes it the old way so
// commguard-sim -trace snapshots keep their config_hash.
func TestTracedManifestHashStable(t *testing.T) {
	cfg := Config{Protection: CommGuard, MTBE: 200e3, Seed: 7, FrameScale: 1, Trace: true, Sequential: true}
	res := &Result{App: "fft", Protection: CommGuard, MTBE: 200e3, Seed: 7, FrameScale: 1}
	if got, want := res.Manifest(cfg).ConfigHash, "77e8b92eaa9c8814"; got != want {
		t.Errorf("traced manifest ConfigHash = %s, want %s", got, want)
	}
	sized := cfg
	sized.TraceEvents = 64
	if res.Manifest(sized).ConfigHash == res.Manifest(cfg).ConfigHash {
		t.Error("an explicit ring capacity did not change the manifest hash")
	}
}
