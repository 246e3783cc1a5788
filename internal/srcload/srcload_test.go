package srcload

import (
	"os"
	"path/filepath"
	"testing"
)

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fake.example/m\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestEachPackageParsedOnce: the syntactic analyses and the type-checker
// see the same *ast.File values, including for a package the typed load
// reaches only through an import.
func TestEachPackageParsedOnce(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":      "package a\n\nimport \"fake.example/m/b\"\n\nvar X = b.Y\n",
		"a/a_test.go": "package a\n",
		"b/b.go":      "package b\n\nvar Y = 1\n",
	})
	p, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Files("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 {
		t.Fatalf("Files(a) = %d files, want 1 (tests excluded)", len(a))
	}
	if _, err := p.Check("a"); err != nil {
		t.Fatal(err)
	}
	b, err := p.Files("b")
	if err != nil {
		t.Fatal(err)
	}
	checked := map[any]bool{}
	for _, f := range p.CheckedFiles() {
		checked[f] = true
	}
	if len(checked) != 2 || !checked[a[0]] || !checked[b[0]] {
		t.Fatalf("type-checked files are not the parsed ones: %d checked", len(checked))
	}
}

// TestMissingDirIsError: a listed directory that does not exist, or holds
// no Go files, fails the load instead of being skipped.
func TestMissingDirIsError(t *testing.T) {
	root := writeModule(t, map[string]string{"empty/README": "no Go here\n"})
	p, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"missing", "empty"} {
		if _, err := p.Files(dir); err == nil {
			t.Errorf("Files(%q): want an error", dir)
		}
	}
}

// TestParseDirectives pins the waiver grammar shared by //repolint:ignore
// and //hotpath:ok.
func TestParseDirectives(t *testing.T) {
	p, f, err := Source("x.go", []byte(`//repolint:ignore RL002 file-wide
package x

//repolint:ignore CM001,CM002 reason
//repolint:ignore RL001,reason text
//repolint:ignore bare reason
//repolint:ignored not this marker
//hotpath:ok CS020 other marker
`))
	if err != nil {
		t.Fatal(err)
	}
	ds := ParseDirectives(p.Fset, f, "repolint:ignore")
	if len(ds) != 4 {
		t.Fatalf("got %d directives, want 4: %+v", len(ds), ds)
	}
	for _, c := range []struct {
		d         Directive
		code      string
		line      int
		want      bool
		fileLevel bool
	}{
		{ds[0], "RL002", 40, true, true},
		{ds[0], "RL001", 40, false, true},
		{ds[1], "CM002", 5, true, false},
		{ds[1], "CM002", 6, false, false},
		{ds[2], "RL001", 5, true, false},
		{ds[2], "RL003", 5, false, false},
		{ds[3], "CS021", 6, true, false},
	} {
		if got := c.d.Waives(c.code, c.line); got != c.want || c.d.FileLevel != c.fileLevel {
			t.Errorf("%+v Waives(%s, %d) = %v (file-level %v), want %v (%v)",
				c.d, c.code, c.line, got, c.d.FileLevel, c.want, c.fileLevel)
		}
	}
}

// chdir moves the test into dir until it ends. Go 1.24's t.Chdir does
// this, but the module builds with Go 1.22.
func chdir(t *testing.T, dir string) {
	t.Helper()
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(back); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFindRootOutsideModule: a working directory with no go.mod above it
// falls back to the module this package was compiled from.
func TestFindRootOutsideModule(t *testing.T) {
	want, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, t.TempDir())
	got, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("FindRoot outside the module = %q, want %q", got, want)
	}
	if _, err := Open(got); err != nil {
		t.Errorf("Open(%q): %v", got, err)
	}
}

// TestFindRootPrefersWorkingDirectory: a module above the working
// directory wins over the one srcload was compiled from.
func TestFindRootPrefersWorkingDirectory(t *testing.T) {
	root := writeModule(t, map[string]string{"a/a.go": "package a\n"})
	chdir(t, filepath.Join(root, "a"))
	got, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	// TempDir may sit behind a symlink; compare what both resolve to.
	if mustEval(t, got) != mustEval(t, root) {
		t.Errorf("FindRoot = %q, want %q", got, root)
	}
}

func mustEval(t *testing.T, path string) string {
	t.Helper()
	p, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
