package main

// CLI contract tests: commguard-vet honors -json with schema-valid output
// and the exit-code convention — 0 clean, 1 findings, 2 usage error. The
// binary is built once per test run and exercised end to end against the
// real repo and against mutated scratch copies of it.

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"commguard/internal/diag"
)

var (
	repoRoot string
	binDir   string
)

func TestMain(m *testing.M) {
	var err error
	repoRoot, err = filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		panic(err)
	}
	binDir, err = os.MkdirTemp("", "commguard-cli")
	if err != nil {
		panic(err)
	}
	build := exec.Command("go", "build", "-o", binDir, "./cmd/commguard-vet")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(binDir)
		panic("building commguard-vet: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// runVet executes the built commguard-vet from the repo root and returns
// stdout, stderr and the exit code.
func runVet(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "commguard-vet"), args...)
	cmd.Dir = repoRoot
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("commguard-vet %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), code
}

func TestVetJSONContract(t *testing.T) {
	t.Parallel()
	stdout, _, code := runVet(t, "-all", "-json")
	if code != 0 && code != 1 {
		t.Fatalf("exit %d, want 0 or 1 (a findings exit, not usage)", code)
	}
	if err := diag.ValidateReport([]byte(stdout)); err != nil {
		t.Errorf("-json output invalid: %v\noutput: %.500s", err, stdout)
	}
}

// assertFamilyReport checks a -json run that must fail on findings of one
// analysis family: exit 1, a schema-valid report, and at least one
// diagnostic under the family's tool label and code prefix.
func assertFamilyReport(t *testing.T, stdout, stderr string, code int, tool, prefix string) {
	t.Helper()
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %.800s\nstderr: %s", code, stdout, stderr)
	}
	if err := diag.ValidateReport([]byte(stdout)); err != nil {
		t.Fatalf("-json output invalid: %v\noutput: %.500s", err, stdout)
	}
	var r diag.Report
	if err := json.Unmarshal([]byte(stdout), &r); err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Diagnostics {
		if d.Tool == tool && strings.HasPrefix(d.Code, prefix) {
			return
		}
	}
	t.Errorf("no %s %s* diagnostic in output:\n%.800s", tool, prefix, stdout)
}

// plantFile writes src at rel (slash-separated) inside a scratch copy.
func plantFile(t *testing.T, scratch, rel, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(scratch, filepath.FromSlash(rel)), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGraphcheckJSONContract: against an empty baseline the checked-in
// CG003/CG006 warnings on the builtin graphs become fatal, and vet reports
// them under tool "graphcheck" in a schema-valid report.
func TestGraphcheckJSONContract(t *testing.T) {
	t.Parallel()
	empty := filepath.Join(t.TempDir(), "empty.baseline.json")
	if err := os.WriteFile(empty, []byte(`{"version": 1, "findings": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runVet(t, "-all", "-baseline", empty, "-json")
	assertFamilyReport(t, stdout, stderr, code, "graphcheck", "CG")
}

// TestCritmapJSONContract: a popped-data loop bound planted in a scratch
// copy's internal/apps is reported under tool "critmap".
func TestCritmapJSONContract(t *testing.T) {
	t.Parallel()
	scratch := copyRepoSources(t)
	plantFile(t, scratch, "internal/apps/vet_planted_crit.go", `package apps

import "commguard/internal/stream"

func vetPlantedCrit() *stream.FuncFilter {
	return stream.NewFuncFilter("planted", 1, 1, 1, func(in, out [][]uint32) {
		for i := 0; i < int(in[0][0]); i++ {
			out[0][0] = uint32(i)
		}
	})
}
`)
	stdout, stderr, code := runVet(t, "-all", "-root", scratch, "-json")
	assertFamilyReport(t, stdout, stderr, code, "critmap", "CM")
}

// TestAtomicsJSONContract: a consumer-side method planted in a scratch
// copy's internal/queue stores to a producer-owned word. The atomics
// discipline reports exactly one CS010 error under tool "soundness".
func TestAtomicsJSONContract(t *testing.T) {
	t.Parallel()
	scratch := copyRepoSources(t)
	plantFile(t, scratch, "internal/queue/vet_planted_atomics.go", `package queue

//queue:side consumer
func (q *Queue) vetPlantedSteal() { q.filled.store(q.plain, 0) }
`)
	stdout, stderr, code := runVet(t, "-all", "-root", scratch, "-json")
	assertFamilyReport(t, stdout, stderr, code, "soundness", "CS010")
	var r diag.Report
	if err := json.Unmarshal([]byte(stdout), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Diagnostics) != 1 || r.Diagnostics[0].Severity != "error" ||
		r.Diagnostics[0].File != "internal/queue/vet_planted_atomics.go" {
		t.Fatalf("want exactly one CS010 error in the planted file, got %+v", r.Diagnostics)
	}
}

// TestAppModeSkipsSourceAnalyses: -app verifies one graph and runs no
// repo-wide source analysis. A type error planted in a hot-path-only
// package (which -all would type-check) must not reach it: -app fft exits
// 0 with only graph-scoped tool labels.
func TestAppModeSkipsSourceAnalyses(t *testing.T) {
	t.Parallel()
	scratch := copyRepoSources(t)
	plantFile(t, scratch, "internal/ecc/vet_planted_typo.go", "package ecc\n\nvar vetPlanted int = \"not an int\"\n")
	stdout, stderr, code := runVet(t, "-app", "fft", "-root", scratch, "-json")
	if code != 0 {
		t.Fatalf("-app fft: exit %d, want 0\nstdout: %.800s\nstderr: %s", code, stdout, stderr)
	}
	if err := diag.ValidateReport([]byte(stdout)); err != nil {
		t.Fatalf("-json output invalid: %v", err)
	}
	var r diag.Report
	if err := json.Unmarshal([]byte(stdout), &r); err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Diagnostics {
		if d.Tool != "graphcheck" && d.Tool != "soundness" {
			t.Errorf("-app reported a %s diagnostic: %+v", d.Tool, d)
		}
	}
	if _, _, code := runVet(t, "-all", "-root", scratch); code != 2 {
		t.Errorf("-all over the planted type error: exit %d, want 2", code)
	}
}

// TestRepolintJSONContract: a math/rand global-generator call planted in a
// scratch copy's internal/fault is reported under tool "repolint".
func TestRepolintJSONContract(t *testing.T) {
	t.Parallel()
	scratch := copyRepoSources(t)
	plantFile(t, scratch, "internal/fault/vet_planted_rand.go", `package fault

import "math/rand"

func vetPlantedRand() int { return rand.Intn(10) }
`)
	stdout, stderr, code := runVet(t, "-all", "-root", scratch, "-json")
	assertFamilyReport(t, stdout, stderr, code, "repolint", "RL")
}

func TestVetCleanUnderCheckedInBaseline(t *testing.T) {
	t.Parallel()
	// The acceptance bar: paper-default protection, checked-in baseline,
	// zero unbaselined findings on the seven builtin graphs.
	stdout, stderr, code := runVet(t, "-all")
	if code != 0 {
		t.Errorf("vet -all: exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

func TestVetBaselineDoesNotMaskViolations(t *testing.T) {
	t.Parallel()
	// Under software-queue protection the fft critical flow becomes a
	// CS001 violation; the baseline (errors are never suppressible) must
	// not hide it even though every current warning is accepted.
	stdout, _, code := runVet(t, "-all", "-protection", "software-queue", "-json")
	if code != 1 {
		t.Fatalf("vet -protection software-queue: exit %d, want 1", code)
	}
	if !bytes.Contains([]byte(stdout), []byte("CS001")) {
		t.Errorf("expected a CS001 violation in output:\n%.800s", stdout)
	}
}

// ABFT checksums kernel outputs but never realigns a stream, so its edge
// verdicts are the unguarded ones: -protection abft reports exactly what
// software-queue does.
func TestVetABFTProtectionIsUnguarded(t *testing.T) {
	t.Parallel()
	want, _, wantCode := runVet(t, "-all", "-protection", "software-queue", "-json")
	got, stderr, code := runVet(t, "-all", "-protection", "abft", "-json")
	if code != wantCode {
		t.Fatalf("vet -protection abft: exit %d, want %d (as software-queue)\nstderr: %s", code, wantCode, stderr)
	}
	if got != want {
		t.Errorf("vet -protection abft output differs from software-queue:\nabft: %.800s\nsoftware-queue: %.800s", got, want)
	}
}

func TestVetSARIFValidates(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "vet.sarif")
	_, stderr, code := runVet(t, "-all", "-sarif", path)
	if code != 0 {
		t.Fatalf("vet -sarif: exit %d\nstderr: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := diag.ValidateSARIF(data); err != nil {
		t.Errorf("SARIF output invalid: %v", err)
	}
}

// copyRepoSources clones the repo's Go sources (plus go.mod and the
// checked-in baseline) into a temp dir so a test can mutate hot paths and
// baselines without touching the real tree.
func copyRepoSources(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return fs.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(d.Name(), ".go") && d.Name() != "go.mod" && d.Name() != "vet.baseline.json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestVetHotpathLifecycle drives the CS020 gate end to end on a scratch
// copy of the repo: an injected allocation on an annotated hot path fails
// vet with a call path; -write-baseline accepts it as a warning (the
// baselined-warnings-only state exits 0); removing the allocation leaves a
// stale baseline entry, which -fail-stale turns into a failure and
// -prune-baseline repairs.
func TestVetHotpathLifecycle(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("repeated whole-repo vet runs; skipped with -short")
	}
	scratch := copyRepoSources(t)
	dct := filepath.Join(scratch, "internal", "dsp", "dct.go")
	orig, err := os.ReadFile(dct)
	if err != nil {
		t.Fatal(err)
	}
	injected := append(append([]byte{}, orig...), []byte(`
//hotpath:entry
func vetInjectedHot(n int) int {
	return len(make([]float64, n))
}
`)...)
	if err := os.WriteFile(dct, injected, 0o644); err != nil {
		t.Fatal(err)
	}

	// 1. The injected allocation is an unbaselined CS020 with a call path.
	stdout, stderr, code := runVet(t, "-all", "-root", scratch, "-json")
	if code != 1 {
		t.Fatalf("injected alloc: exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if err := diag.ValidateReport([]byte(stdout)); err != nil {
		t.Fatalf("-json output invalid: %v", err)
	}
	if !strings.Contains(stdout, "CS020") || !strings.Contains(stdout, "vetInjectedHot") {
		t.Fatalf("expected a CS020 naming vetInjectedHot:\n%.800s", stdout)
	}

	// 2. -write-baseline accepts the warning; with every finding baselined,
	// vet is clean.
	_, stderr, code = runVet(t, "-all", "-root", scratch, "-write-baseline")
	if code != 0 {
		t.Fatalf("-write-baseline: exit %d, want 0\nstderr: %s", code, stderr)
	}
	stdout, _, code = runVet(t, "-all", "-root", scratch)
	if code != 0 || !strings.Contains(stdout, "0 findings") {
		t.Fatalf("baselined warnings should exit 0:\nexit %d, %s", code, stdout)
	}

	// 3. Removing the allocation strands the baseline entry; -fail-stale is
	// the CI gate for exactly that.
	if err := os.WriteFile(dct, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runVet(t, "-all", "-root", scratch, "-fail-stale")
	if code != 1 || !strings.Contains(stderr, "stale baseline") {
		t.Fatalf("-fail-stale on stranded entry: exit %d, want 1\nstderr: %s", code, stderr)
	}

	// 4. -prune-baseline repairs the file; the gate passes again.
	_, stderr, code = runVet(t, "-all", "-root", scratch, "-prune-baseline")
	if code != 0 || !strings.Contains(stderr, "pruned") {
		t.Fatalf("-prune-baseline: exit %d, want 0\nstderr: %s", code, stderr)
	}
	_, stderr, code = runVet(t, "-all", "-root", scratch, "-fail-stale")
	if code != 0 {
		t.Fatalf("post-prune -fail-stale: exit %d, want 0\nstderr: %s", code, stderr)
	}
}

// TestVetReportsPoppedLoopBoundOnce plants a filter whose loop bound comes
// straight from popped data into a scratch copy's internal/apps. The
// criticality analysis owns that pattern (CM001, an error); no other
// analysis may report the same line again under a second code.
func TestVetReportsPoppedLoopBoundOnce(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("whole-repo vet run; skipped with -short")
	}
	scratch := copyRepoSources(t)
	const planted = "internal/apps/vet_planted.go"
	src := `package apps

import "commguard/internal/stream"

func vetPlantedLoop() *stream.FuncFilter {
	return stream.NewFuncFilter("planted", 1, 1, 1, func(in, out [][]uint32) {
		n := int(in[0][0])
		for i := 0; i < n; i++ {
			out[0][0] = uint32(i)
		}
	})
}
`
	if err := os.WriteFile(filepath.Join(scratch, filepath.FromSlash(planted)), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runVet(t, "-all", "-root", scratch, "-json")
	if code != 1 {
		t.Fatalf("planted CM001: exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var r diag.Report
	if err := json.Unmarshal([]byte(stdout), &r); err != nil {
		t.Fatalf("-json output: %v\n%.800s", err, stdout)
	}
	var onLine []diag.Diagnostic
	for _, d := range r.Diagnostics {
		if d.File == planted && d.Line == 8 {
			onLine = append(onLine, d)
		}
	}
	if len(onLine) != 1 || onLine[0].Code != "CM001" || onLine[0].Severity != "error" {
		t.Fatalf("want exactly one CM001 error on %s:8, got %+v", planted, onLine)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		{},                               // neither -app nor -all
		{"-app", "nope"},                 // unknown benchmark
		{"-all", "-protection", "bogus"}, // unknown level
		{"-all", "-write-baseline", "-prune-baseline"}, // mutually exclusive
		{"-app", "fft", "-prune-baseline"},             // staleness needs -all
		{"-app", "fft", "-fail-stale"},                 // staleness needs -all
	}
	for _, c := range cases {
		_, stderr, code := runVet(t, c...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %.200s)", c, code, stderr)
		}
	}
}
