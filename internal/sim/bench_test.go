package sim

import (
	"testing"

	"commguard/internal/apps"
)

// BenchmarkSimRun measures one error-free sequential sim.Run of each
// builtin under each protection scheme. Building the instance (a cached
// workload plus a fresh graph) is outside the timer.
func BenchmarkSimRun(b *testing.B) {
	for _, app := range apps.AllBuiltin() {
		for _, p := range []Protection{ReliableQueue, CommGuard, ABFT} {
			b.Run(app.Name+"/"+p.String(), func(b *testing.B) {
				cfg := Config{Protection: p, Sequential: true}
				b.ReportAllocs()
				for range b.N {
					b.StopTimer()
					inst, err := app.New()
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := Run(inst, cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
