package experiments

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// RunAll must compute each benchmark's error-free baseline at most twice
// (once for the reference output of self-referenced apps, once for the
// error-free quality score) no matter how many figures consume it. The
// counting hook fires on every actual baseline simulation; before the
// shared cache, Figures 8, 10 and 11 each re-ran them.
//
// The run is `experiments -fig all -quick -sequential`, whose stdout must
// also match testdata/quick-sequential.txt (see checkQuickSequential).
func TestRunAllSharesReferenceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick regeneration")
	}
	o := QuickOptions()
	o.Sequential = true
	var out bytes.Buffer
	o.Out = &out

	rc := newReferenceCache()
	var mu sync.Mutex
	runs := map[string]int{}
	rc.onBaselineRun = func(app string) {
		mu.Lock()
		runs[app]++
		mu.Unlock()
	}
	o.refs = rc

	if _, err := RunAll(o); err != nil {
		t.Fatal(err)
	}
	checkQuickSequential(t, out.String())
	mu.Lock()
	defer mu.Unlock()
	if len(runs) == 0 {
		t.Fatal("counting hook never fired; baselines not routed through the shared cache")
	}
	for app, n := range runs {
		if n > 2 {
			t.Errorf("%s: %d error-free baseline runs, want <= 2 (reference + quality score)", app, n)
		}
	}
	if rc.baselineRuns == 0 {
		t.Error("baselineRuns counter not incremented")
	}
}

// fig13WallClock matches the lines of Figure 13 that time the host: one
// row per benchmark and the mean. They are the only lines of the quick
// sequential regeneration that vary from run to run.
var fig13WallClock = regexp.MustCompile(`^(\S+ +-?\d+\.\d%  +-?\d+\.\d%|mean overhead at default frames: -?\d+\.\d%)$`)

// maskFig13 blanks Figure 13's wall-clock lines and reports how many it
// blanked.
func maskFig13(text string) (string, int) {
	lines := strings.Split(text, "\n")
	in, masked := false, 0
	for i, l := range lines {
		if strings.HasPrefix(l, "=== ") {
			in = l == "=== Figure 13 ==="
			continue
		}
		if in && fig13WallClock.MatchString(l) {
			lines[i] = "<fig13 wall clock>"
			masked++
		}
	}
	return strings.Join(lines, "\n"), masked
}

// checkQuickSequential compares a quick sequential regeneration with the
// committed testdata/quick-sequential.txt, line by line, except Figure
// 13's six benchmark rows and its mean. Regenerate the file with
//
//	go run ./cmd/experiments -fig all -quick -sequential > internal/experiments/testdata/quick-sequential.txt
//
// and explain every changed row where the change is recorded.
func checkQuickSequential(t *testing.T, got string) {
	t.Helper()
	raw, err := os.ReadFile("testdata/quick-sequential.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, nWant := maskFig13(string(raw))
	got, nGot := maskFig13(got)
	if nWant != 7 || nGot != 7 {
		t.Fatalf("masked %d Figure 13 lines in the golden and %d in the run, want 7 each", nWant, nGot)
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("quick sequential regeneration differs from testdata/quick-sequential.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
