package main

import (
	"os"
	"path/filepath"
	"testing"
)

// write drops content into a temp file with the exact artifact-suffix
// name tracecheck dispatches on.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	goodManifest = `"manifest": {"go_version": "go1.24.0", "gomaxprocs": 1}`
	goodSnapshot = `{` + goodManifest + `, "sections": {
		"latency": {"histograms": [
			{"name": "fire_batch", "unit": "ns", "count": 2, "buckets": [0, 1, 1], "p50": 1, "p90": 2, "p99": 2}]},
		"flight": {"triggers": [{"kind": "hang", "detail": "cancelled"}]}}}`
)

// TestExitCodeContract pins tracecheck's exit statuses: 0 all valid, 1
// any invalid, 2 usage.
func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	good := write(t, dir, "ok.snapshot.json", goodSnapshot)
	bad := write(t, dir, "bad.snapshot.json", `{}`)

	if code := run(nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{good}); code != 0 {
		t.Errorf("valid artifact: exit %d, want 0", code)
	}
	if code := run([]string{bad}); code != 1 {
		t.Errorf("invalid artifact: exit %d, want 1", code)
	}
	// A bad file fails the batch even when good ones surround it, and an
	// unknown suffix is a validation failure, not a usage error.
	if code := run([]string{good, bad}); code != 1 {
		t.Errorf("mixed batch: exit %d, want 1", code)
	}
	if code := run([]string{write(t, dir, "what.bin", "x")}); code != 1 {
		t.Errorf("unknown suffix: exit %d, want 1", code)
	}
	if code := run([]string{filepath.Join(dir, "absent.snapshot.json")}); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestDispatchNewArtifacts pins that the runtime-health data lives in the
// snapshot: its latency and flight sections are checked against their
// schemas (a bad section fails the file), and the retired standalone
// .metrics.json/.flight.json artifacts are unknown kinds.
func TestDispatchNewArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := check(write(t, dir, "run.snapshot.json", goodSnapshot)); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
	for name, sections := range map[string]string{
		"bad-latency": `"latency": {"histograms": [{"name": "x", "unit": "ns", "count": 5, "buckets": [1]}]}`,
		"bad-flight":  `"flight": {"triggers": []}`,
	} {
		doc := `{` + goodManifest + `, "sections": {` + sections + `}}`
		if err := check(write(t, dir, name+".snapshot.json", doc)); err == nil {
			t.Errorf("%s: snapshot with a bad section accepted", name)
		}
	}
	for _, name := range []string{"run.metrics.json", "run.flight.json"} {
		if err := check(write(t, dir, name, goodSnapshot)); err == nil {
			t.Errorf("%s: retired artifact kind accepted", name)
		}
	}
}
