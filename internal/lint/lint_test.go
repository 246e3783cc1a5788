package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func rules(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestRL001FlagsRawChannelOps(t *testing.T) {
	src := `package stream

func bad(ch chan int) {
	ch <- 1
	<-ch
	close(ch)
	select {
	case v := <-ch:
		_ = v
	default:
	}
}
`
	fs, err := Source("internal/stream/bad.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL001"] < 5 { // chan type, send, receive, close, select
		t.Fatalf("RL001 fired %d times, want >= 5:\n%v", rules(fs)["RL001"], fs)
	}
}

func TestRL001ScopedToRuntimePackages(t *testing.T) {
	src := "package x\n\nfunc ok(ch chan int) { ch <- 1 }\n"
	for _, path := range []string{
		"internal/sim/pipe.go",          // other package: allowed
		"internal/stream/transport.go",  // sanctioned file: allowed
		"internal/stream/graph_test.go", // test file: allowed
		"internal/commguard/transport.go",
	} {
		fs, err := Source(path, src)
		if err != nil {
			t.Fatal(err)
		}
		if n := rules(fs)["RL001"]; n != 0 {
			t.Errorf("%s: RL001 fired %d times, want 0", path, n)
		}
	}
	fs, err := Source("internal/commguard/alignment.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL001"] == 0 {
		t.Error("commguard non-transport file not flagged")
	}
}

func TestRL002FlagsGlobalRand(t *testing.T) {
	src := `package fault

import "math/rand"

func bad() int {
	rand.Seed(42)
	return rand.Intn(10)
}
`
	fs, err := Source("internal/fault/bad.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL002"] != 2 {
		t.Fatalf("RL002 fired %d times, want 2 (Seed, Intn):\n%v", rules(fs)["RL002"], fs)
	}
}

func TestRL002AllowsSeededGenerators(t *testing.T) {
	src := `package fault

import "math/rand"

type inj struct{ rng *rand.Rand }

func good(seed int64) *inj {
	return &inj{rng: rand.New(rand.NewSource(seed))}
}

func use(i *inj) int { return i.rng.Intn(10) }
`
	fs, err := Source("internal/fault/good.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if n := rules(fs)["RL002"]; n != 0 {
		t.Fatalf("seeded-generator idiom flagged %d times:\n%v", n, fs)
	}
}

func TestRL002HandlesAliasAndShadow(t *testing.T) {
	aliased := `package fault

import mrand "math/rand"

func bad() int { return mrand.Intn(3) }
`
	fs, err := Source("internal/fault/alias.go", aliased)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL002"] != 1 {
		t.Fatalf("aliased global rand not flagged:\n%v", fs)
	}

	shadowed := `package fault

import _ "math/rand"

type fake struct{}

func (fake) Intn(n int) int { return 0 }

func ok() int {
	rand := fake{}
	return rand.Intn(3)
}
`
	fs, err = Source("internal/fault/shadow.go", shadowed)
	if err != nil {
		t.Fatal(err)
	}
	if n := rules(fs)["RL002"]; n != 0 {
		t.Fatalf("shadowing local flagged %d times:\n%v", n, fs)
	}
}

func TestRL003FlagsImpureRates(t *testing.T) {
	src := `package anywhere

type f struct {
	n     int
	rates []int
}

func (x *f) PushRates() []int {
	x.n++
	x.rates[0] = x.n
	return x.rates
}

func (x *f) PopRates() []int {
	return []int{rand.Intn(4)}
}
`
	fs, err := Source("internal/apps/impure.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL003"] < 3 { // IncDec, indexed-field assign, rand call
		t.Fatalf("RL003 fired %d times, want >= 3:\n%v", rules(fs)["RL003"], fs)
	}
}

func TestRL003AllowsPureDerivedRates(t *testing.T) {
	src := `package anywhere

type f struct{ weights []int }

func (x *f) PopRates() []int { return append([]int(nil), x.weights...) }

func (x *f) PushRates() []int {
	total := 0
	for _, w := range x.weights {
		total += w
	}
	return []int{total}
}
`
	fs, err := Source("internal/stream2/pure.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if n := rules(fs)["RL003"]; n != 0 {
		t.Fatalf("pure derived rates flagged %d times:\n%v", n, fs)
	}
}

func TestSuppressionDirective(t *testing.T) {
	src := `package fault

import "math/rand"

func a() int {
	//repolint:ignore RL002 legacy shim kept for comparison runs
	return rand.Intn(10)
}

func b() int {
	return rand.Intn(10) //repolint:ignore RL002 same-line form
}

func c() int {
	return rand.Intn(10) // not suppressed
}
`
	fs, err := Source("internal/fault/supp.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL002"] != 1 {
		t.Fatalf("suppression left %d findings, want exactly the unsuppressed one:\n%v", rules(fs)["RL002"], fs)
	}
}

func TestSuppressionIsCodeSpecific(t *testing.T) {
	src := `package fault

import "math/rand"

func a() int {
	//repolint:ignore RL001 wrong code does not cover RL002
	return rand.Intn(10)
}
`
	fs, err := Source("internal/fault/supp2.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL002"] != 1 {
		t.Fatalf("mismatched suppression code swallowed the finding:\n%v", fs)
	}
}

func TestFindingString(t *testing.T) {
	fs, err := Source("internal/fault/s.go", "package fault\n\nimport \"math/rand\"\n\nfunc x() int { return rand.Intn(2) }\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	got := fs[0].String()
	if !strings.HasPrefix(got, "internal/fault/s.go:5:") || !strings.Contains(got, "[RL002]") {
		t.Errorf("rendering = %q", got)
	}
}

// The repo itself must be clean — the same invariant CI enforces via
// `go run ./cmd/repolint ./...`.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

func TestSuppressionCommaSeparatedCodes(t *testing.T) {
	src := `package fault

import "math/rand"

func a() int {
	//repolint:ignore RL001,RL002 both named, comma form
	return rand.Intn(10)
}
`
	fs, err := Source("internal/fault/s.go", src)
	if err != nil {
		t.Fatal(err)
	}
	// RL002 suppressed; the directive matched, so no RL006 either. RL001
	// names a real rule but matched nothing — a directive is stale only
	// when it suppresses nothing at all.
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

func TestSuppressionFileLevel(t *testing.T) {
	src := `//repolint:ignore RL002 whole file is a legacy shim

package fault

import "math/rand"

func a() int { return rand.Intn(10) }

func b() int { return rand.Intn(10) }
`
	fs, err := Source("internal/fault/s.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("file-level directive should cover every finding, got %v", fs)
	}
}

func TestStatementLevelDoesNotLeakAcrossFile(t *testing.T) {
	src := `package fault

import "math/rand"

func a() int {
	//repolint:ignore RL002 only this one
	return rand.Intn(10)
}

func b() int { return rand.Intn(10) }
`
	fs, err := Source("internal/fault/s.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL002"] != 1 {
		t.Fatalf("statement-level directive must cover one line only, got %v", fs)
	}
}

func TestStaleIgnoreReported(t *testing.T) {
	src := `package fault

//repolint:ignore RL002 nothing here uses rand anymore
func a() int { return 1 }
`
	fs, err := Source("internal/fault/s.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["RL006"] != 1 {
		t.Fatalf("want stale directive reported as RL006, got %v", fs)
	}
	if fs[0].Pos.Line != 3 {
		t.Errorf("RL006 should anchor at the directive, got line %d", fs[0].Pos.Line)
	}
}

func TestStaleExemptsForeignCodes(t *testing.T) {
	// A directive naming another analysis's code (internal/crit's CM002) is
	// not this linter's to judge.
	src := `package codec

//repolint:ignore CM002 index is total by construction
func a() int { return 1 }
`
	fs, err := Source("internal/codec/x/s.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("foreign-code directive must be exempt from staleness, got %v", fs)
	}
}
