package soundness

import (
	"os"
	"path/filepath"
	"testing"

	"commguard/internal/check"
	"commguard/internal/crit"
	"commguard/internal/stream"
)

// appSourceFiles are the seven builtin benchmark graphs, the corpus the
// analyzer must digest without incident.
var appSourceFiles = []string{
	"beamformer.go", "vocoder.go", "complexfir.go",
	"fft.go", "jpeg.go", "mp3.go", "doall.go",
}

// FuzzSoundness mirrors FuzzGraphCheck for the static analyses: whatever
// the source looks like — the seven builtin graphs, the deliberately
// broken fixtures (one per CS code), or mutations of either — neither the
// taint analysis, the verdict composition, nor the atomics discipline may
// panic. Parse errors are fine; crashes are not.
func FuzzSoundness(f *testing.F) {
	for _, name := range appSourceFiles {
		src, err := os.ReadFile(filepath.Join("..", "apps", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, fixture := range []string{srcCS001, srcCS002, srcCS003, srcBoth, srcCS010, srcCS010Word, srcCS012} {
		f.Add(fixture)
	}

	f.Fuzz(func(t *testing.T, src string) {
		// The atomics discipline runs on anything that parses.
		if _, err := CheckAtomicsSource("fuzz.go", src); err != nil {
			return
		}
		m, err := crit.AnalyzeSource("fuzz.go", src, crit.FilterMode)
		if err != nil {
			return
		}
		// Compose with a chain graph whose middle filter carries the first
		// analyzed name, exercising FilterFor and every edge rule.
		name := "apps.work"
		if len(m.Filters) > 0 {
			name = m.Filters[0].Name
		}
		g := stream.NewGraph()
		if _, err := g.Chain(
			stream.NewSource("src", 1, make([]uint32, 8)),
			stream.NewFuncFilter(name, 1, 1, 1, func(in, out [][]uint32) { copy(out[0], in[0]) }),
			stream.NewSink("sink", 1),
		); err != nil {
			t.Fatal(err)
		}
		for _, guarded := range []bool{false, true} {
			fact := &Fact{Crit: m}
			if guarded {
				fact.Guarded = func(*stream.Edge) bool { return true }
			}
			check.Run(g, check.Config{Facts: map[string]any{FactKey: fact}})
			for _, fm := range m.Filters {
				_ = VerdictFor(fm, guarded)
			}
		}
	})
}

// TestFixturesFireExactlyTheirCode pins the one-fixture-one-code contract
// across both analysis families.
func TestFixturesFireExactlyTheirCode(t *testing.T) {
	edgeCases := map[string]string{"CS001": srcCS001, "CS002": srcCS002, "CS003": srcCS003}
	for code, src := range edgeCases {
		ds := csFindings(chainGraph(t, "apps.work"), factFrom(t, src, false))
		if len(ds) != 1 || ds[0].Code != code {
			t.Errorf("%s fixture: got %v", code, ds)
		}
	}
	for _, tc := range []struct{ code, src string }{
		{"CS010", srcCS010}, {"CS010", srcCS010Word}, {"CS012", srcCS012},
	} {
		fs := atomicsFindings(t, tc.src)
		if len(fs) != 1 || fs[0].Code != tc.code {
			t.Errorf("%s fixture: got %v", tc.code, fs)
		}
	}
}
