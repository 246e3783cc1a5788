package main

import (
	"fmt"

	"commguard/internal/sim"
)

// jobSpec is one job kind: an app under a protection scheme at an MTBE
// (0 = error-free). A fault-injected job also takes its round's seed.
type jobSpec struct {
	app        string
	protection sim.Protection
	mtbe       float64
}

func (s jobSpec) String() string {
	if s.mtbe == 0 {
		return s.app + "/" + s.protection.String()
	}
	return fmt.Sprintf("%s/%s/%gk", s.app, s.protection, s.mtbe/1e3)
}

// workload is a closed loop with one client over a fixed, ordered job
// list: rounds × round. Job j is round[j%len(round)] in round
// (j/len(round))%rounds; a run that outlasts the list starts it again.
// Every job runs on sim's sequential engine.
//
// There is no concurrent-engine workload: about one concurrent run in
// 3000 (more under CPU contention) loses the tail of a stream, because
// Queue.acquireDrainSlot gives up on a closed queue without draining the
// working set the producer published just before closing. A workload must
// not fail, so concurrent workloads wait for that fix.
type workload struct {
	name string
	why  string
	// round lists one job of every kind. Slices end on round boundaries,
	// so every slice runs the same mix.
	round  []jobSpec
	rounds int
}

// injects reports whether the workload has fault-injected jobs, whose
// outputs are checked against golden digests.
func (w *workload) injects() bool {
	for _, s := range w.round {
		if s.mtbe > 0 {
			return true
		}
	}
	return false
}

// apps returns the distinct apps of the round, in first-use order.
func (w *workload) apps() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range w.round {
		if !seen[s.app] {
			seen[s.app] = true
			names = append(names, s.app)
		}
	}
	return names
}

func (w *workload) jobs() int { return w.rounds * len(w.round) }

// spec returns job j's kind index and its round.
func (w *workload) spec(j int) (kind, round int) {
	return j % len(w.round), (j / len(w.round)) % w.rounds
}

// seedFor is the simulation seed of a round: S*1000+round for seed base S.
func seedFor(seedBase uint64, round int) int64 {
	return int64(seedBase*1000 + uint64(round))
}

func product(appNames []string, prots []sim.Protection, mtbes []float64) []jobSpec {
	var out []jobSpec
	for _, a := range appNames {
		for _, p := range prots {
			for _, m := range mtbes {
				out = append(out, jobSpec{app: a, protection: p, mtbe: m})
			}
		}
	}
	return out
}

// workloads returns the benchmark's workloads. The error-free ones do not
// depend on the seed, so their list is one round.
func workloads() []*workload {
	perSample := []string{"audiobeamformer", "channelvocoder", "complex-fir", "doall"}
	return []*workload{
		{
			name:   "guarded-stream",
			why:    "per-sample apps under CommGuard, error-free: queue transit and header insert/align do most of the work",
			round:  product(perSample, []sim.Protection{sim.CommGuard}, []float64{0}),
			rounds: 1,
		},
		{
			name:   "plain-stream",
			why:    "the same traffic on the reliable queue without headers: a queue change moves both, a header change only guarded-stream",
			round:  product(perSample, []sim.Protection{sim.ReliableQueue}, []float64{0}),
			rounds: 1,
		},
		{
			name:   "media-kernels",
			why:    "jpeg and mp3 under CommGuard and ABFT, error-free: kernel-bound batch and checksum paths, one header per ~10k items",
			round:  product([]string{"jpeg", "mp3"}, []sim.Protection{sim.CommGuard, sim.ABFT}, []float64{0}),
			rounds: 1,
		},
		{
			name: "fault-campaign",
			why:  "seeded faults as every figure sweep runs them: injector, realignment, ABFT repair and scoring",
			round: product([]string{"audiobeamformer", "channelvocoder", "complex-fir", "fft", "mp3", "doall"},
				[]sim.Protection{sim.ReliableQueue, sim.CommGuard, sim.ABFT}, []float64{64e3, 256e3}),
			rounds: 80,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
