package hotpath

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commguard/internal/srcload"
)

func analyze(t *testing.T, src string) []Finding {
	t.Helper()
	fs, err := AnalyzeSource("fixture.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFixturesFireExactlyTheirCode pins the one-fixture-one-code contract.
func TestFixturesFireExactlyTheirCode(t *testing.T) {
	for code, src := range fixtures() {
		fs := analyze(t, src)
		if len(fs) != 1 || fs[0].Code != code {
			t.Errorf("%s fixture: got %v", code, fs)
			continue
		}
		if len(fs[0].Path) == 0 || fs[0].Entry != "p.Hot" {
			t.Errorf("%s fixture: missing call path, got %+v", code, fs[0])
		}
	}
}

// TestCleanFixtureFiresNothing pins that a pure annotated path — including
// a //hotpath:ok boundary — produces zero findings.
func TestCleanFixtureFiresNothing(t *testing.T) {
	if fs := analyze(t, srcClean); len(fs) != 0 {
		t.Errorf("clean fixture fired: %v", fs)
	}
}

// TestCallPathReconstruction pins the entry -> ... -> leaf chain on a
// violation two frames below the entry.
func TestCallPathReconstruction(t *testing.T) {
	fs := analyze(t, srcDeep)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	f := fs[0]
	if f.Code != CodeAlloc {
		t.Errorf("code = %s, want CS020", f.Code)
	}
	want := []string{"p.Hot", "p.outer", "p.inner"}
	if len(f.Path) != len(want) {
		t.Fatalf("path = %v, want %v", f.Path, want)
	}
	for i := range want {
		if f.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", f.Path, want)
		}
	}
	if f.Func() != "p.inner" || f.Entry != "p.Hot" {
		t.Errorf("Func()=%s Entry=%s", f.Func(), f.Entry)
	}
	if !strings.Contains(f.String(), "p.Hot -> p.outer -> p.inner") {
		t.Errorf("String() lacks the path: %s", f.String())
	}
}

// TestOkDirectiveSuppression pins the statement-level waiver: a directive
// naming the finding's code silences it; one naming a different code does
// not.
func TestOkDirectiveSuppression(t *testing.T) {
	fs := analyze(t, srcSuppressed)
	if len(fs) != 1 || fs[0].Code != CodeHidden {
		t.Fatalf("want exactly the uncovered CS022, got %v", fs)
	}
}

// TestOkDirectiveWaivesOnlyNamedCodes: a //hotpath:ok waiver covers
// exactly the codes it names. One naming only other codes, or gluing a
// code to its reason with a comma, must not turn into a waive-everything
// directive.
func TestOkDirectiveWaivesOnlyNamedCodes(t *testing.T) {
	for _, tc := range []struct {
		directive string
		want      int // CS020 findings left on the make
	}{
		{"//hotpath:ok CS020 warmup", 0},
		{"//hotpath:ok CS020,CS021 warmup", 0},
		{"//hotpath:ok warmup, no codes named", 0},
		{"//hotpath:ok CS021 reason", 1},
		{"//hotpath:ok RL001 reason", 1},
		{"//hotpath:ok CS021,reason", 1},
	} {
		fs := analyze(t, `package p

//hotpath:entry
func Hot(n int) int {
	`+tc.directive+`
	return len(make([]byte, n))
}
`)
		if len(fs) != tc.want {
			t.Errorf("%q: %d findings, want %d: %v", tc.directive, len(fs), tc.want, fs)
		}
	}
}

// TestSharedHelperReportedOnce pins dedup across entries: one finding,
// attributed to the first entry in source order.
func TestSharedHelperReportedOnce(t *testing.T) {
	fs := analyze(t, srcShared)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	if fs[0].Entry != "p.HotA" {
		t.Errorf("entry = %s, want p.HotA (first in source order)", fs[0].Entry)
	}
}

// TestAnalyzeDirsCrossPackage proves the whole-program walk crosses
// package boundaries inside a module, with the path naming both packages.
func TestAnalyzeDirsCrossPackage(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fake.example/m\n\ngo 1.22\n")
	write("a/a.go", `package a

import "fake.example/m/b"

//hotpath:entry
func Hot(n int) int {
	return len(b.Leak(n))
}
`)
	write("b/b.go", `package b

func Leak(n int) []byte {
	return make([]byte, n)
}
`)
	fs, err := AnalyzeDirs(openProgram(t, root), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Code != CodeAlloc {
		t.Fatalf("want one CS020, got %v", fs)
	}
	if got := strings.Join(fs[0].Path, " -> "); got != "a.Hot -> b.Leak" {
		t.Errorf("path = %q, want %q", got, "a.Hot -> b.Leak")
	}
	if filepath.Base(fs[0].Pos.Filename) != "b.go" {
		t.Errorf("finding anchored in %s, want b.go", fs[0].Pos.Filename)
	}
}

// TestTypeErrorIsError pins strict mode: a module that does not
// type-check is an analysis error, not a finding.
func TestTypeErrorIsError(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fake.example/m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	bad := "package a\n\nfunc Broken() int { return undefinedIdent }\n"
	if err := os.WriteFile(filepath.Join(root, "a", "a.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeDirs(openProgram(t, root), []string{"a"}); err == nil {
		t.Fatal("want a type error, got nil")
	}
}

// TestRepoFastPathsClean is the unit-level form of the standing gate: the
// annotated queue/AM/HI/kernel fast paths must stay alloc-free and
// non-blocking. When this fails, commguard-vet -all fails with the same
// findings — fix the path or mark a sanctioned boundary, don't delete the
// test.
func TestRepoFastPathsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program analysis; skipped with -short")
	}
	fs, err := AnalyzeRepo(openProgram(t, moduleRoot(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

// TestRepoHasEntries guards against the gate silently dissolving: if the
// annotations are ever dropped, zero findings would mean nothing.
func TestRepoHasEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program analysis; skipped with -short")
	}
	// Count //hotpath:entry markers across the analyzed sources textually;
	// the analyzer itself must see at least as many live entries as the
	// queue's four batch ops plus Push/Pop.
	root := moduleRoot(t)
	count := 0
	for _, dir := range Sources() {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(root, dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			count += strings.Count(string(data), "//"+entryMarker)
		}
	}
	if count < 6 {
		t.Errorf("only %d //hotpath:entry annotations under Sources(); the purity gate has dissolved", count)
	}
}

// TestEveryEntryIsAnalyzed fails when a non-test file carries a
// //hotpath:entry directive in a directory Sources does not list: the
// analyzer discovers entries only there, so such an entry would be
// silently unproven.
func TestEveryEntryIsAnalyzed(t *testing.T) {
	root := moduleRoot(t)
	listed := map[string]bool{}
	for _, dir := range Sources() {
		listed[dir] = true
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, or tool state
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "//"+entryMarker) {
				rel, err := filepath.Rel(root, filepath.Dir(path))
				if err != nil {
					return err
				}
				if !listed[filepath.ToSlash(rel)] {
					t.Errorf("%s has a //%s directive, but %s is not in Sources()", path, entryMarker, rel)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := srcload.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func openProgram(t *testing.T, root string) *srcload.Program {
	t.Helper()
	p, err := srcload.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
