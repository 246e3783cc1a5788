package diag

import (
	"strings"
	"testing"
)

const goodManifest = `"manifest": {"go_version": "go1.24.0", "gomaxprocs": 4}`

// snapshotWith wraps one section body into an otherwise valid snapshot.
func snapshotWith(name, body string) string {
	return `{` + goodManifest + `, "sections": {"quality": {"db": 20.2}, "` + name + `": ` + body + `}}`
}

// rejects asserts every case fails ValidateSnapshot with an error naming
// its cause.
func rejects(t *testing.T, cases map[string]struct{ doc, want string }) {
	t.Helper()
	for name, c := range cases {
		err := ValidateSnapshot([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestValidateSnapshot(t *testing.T) {
	good := `{"manifest":{"go_version":"go1.24.0","gomaxprocs":8},"sections":{"quality":{"db":20.2}}}`
	if err := ValidateSnapshot([]byte(good)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if err := ValidateSnapshot([]byte(snapshotWith("trace", `{"events": 12, "dropped": 0, "cores": 2, "queues": 1}`))); err != nil {
		t.Fatalf("valid trace section rejected: %v", err)
	}
	// Sections without a fixed schema are opaque subsystem stats.
	if err := ValidateSnapshot([]byte(snapshotWith("cores", `[1]`))); err != nil {
		t.Fatalf("opaque section rejected: %v", err)
	}
	rejects(t, map[string]struct{ doc, want string }{
		"no manifest":      {`{"sections":{}}`, "no manifest"},
		"empty go_version": {`{"manifest":{"go_version":"","gomaxprocs":8},"sections":{}}`, "go_version"},
		"bad gomaxprocs":   {`{"manifest":{"go_version":"go1.24.0","gomaxprocs":0},"sections":{}}`, "gomaxprocs"},
		"no sections":      {`{"manifest":{"go_version":"go1.24.0","gomaxprocs":8}}`, "no sections"},
		"not json":         {`nope`, "snapshot"},
		"garbage trace":    {snapshotWith("trace", `[1]`), "trace section"},
		"negative events":  {snapshotWith("trace", `{"events": -1}`), "negative"},
		"garbage manifest": {`{"manifest": [], "sections": {}}`, "snapshot"},
	})
}

const validLatency = `{"histograms": [
    {"name": "queue_push_wait", "unit": "ns", "count": 3, "sum": 70,
     "buckets": [0, 0, 0, 0, 1, 2], "p50": 24, "p90": 30, "p99": 31},
    {"name": "detect_items", "unit": "items", "count": 0, "sum": 0,
     "p50": 0, "p90": 0, "p99": 0}]}`

// The "latency" section carries the runtime-health histograms.
func TestValidateMetricsAccepts(t *testing.T) {
	if err := ValidateSnapshot([]byte(snapshotWith("latency", validLatency))); err != nil {
		t.Fatal(err)
	}
}

func TestValidateMetricsRejects(t *testing.T) {
	rejects(t, map[string]struct{ doc, want string }{
		"garbage":       {snapshotWith("latency", `{]`), "snapshot"},
		"not an object": {snapshotWith("latency", `[1]`), "latency section"},
		"no manifest":   {`{"sections": {"latency": ` + validLatency + `}}`, "no manifest"},
		"no histograms": {snapshotWith("latency", `{"histograms": []}`), "no histograms"},
		"unnamed":       {snapshotWith("latency", `{"histograms": [{"unit": "ns", "count": 0}]}`), "no name"},
		"no unit":       {snapshotWith("latency", `{"histograms": [{"name": "x", "count": 0}]}`), "no unit"},
		"count mismatch": {snapshotWith("latency",
			`{"histograms": [{"name": "x", "unit": "ns", "count": 5, "buckets": [1, 2]}]}`), "bucket total"},
		"negative quantile": {snapshotWith("latency",
			`{"histograms": [{"name": "x", "unit": "ns", "count": 1, "buckets": [1], "p50": -1, "p90": 3, "p99": 4}]}`), "negative quantile"},
		"unordered quantiles": {snapshotWith("latency",
			`{"histograms": [{"name": "x", "unit": "ns", "count": 1, "buckets": [1], "p50": 9, "p90": 3, "p99": 4}]}`), "not ordered"},
	})
}

const validFlight = `{
  "triggers": [{"kind": "watchdog", "detail": "3 loop-guard refusals in trace"}],
  "trigger_events": [{"ts_ns": 10, "kind": "watchdog", "core": 1, "args": {"bound": 4096}}]}`

// The "flight" section records why a flight recorder fired.
func TestValidateFlightAccepts(t *testing.T) {
	if err := ValidateSnapshot([]byte(snapshotWith("flight", validFlight))); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFlightRejects(t *testing.T) {
	rejects(t, map[string]struct{ doc, want string }{
		"garbage":     {snapshotWith("flight", `[`), "snapshot"},
		"not object":  {snapshotWith("flight", `"hang"`), "flight section"},
		"no manifest": {`{"sections": {"flight": {"triggers": [{"kind": "hang", "detail": "x"}]}}}`, "no manifest"},
		"no triggers": {snapshotWith("flight", `{"triggers": []}`), "no triggers"},
		"kindless trigger": {snapshotWith("flight",
			`{"triggers": [{"detail": "x"}]}`), "no kind"},
		"detailless trigger": {snapshotWith("flight",
			`{"triggers": [{"kind": "hang"}]}`), "no detail"},
		"bad trigger event": {snapshotWith("flight", `{"triggers": [{"kind": "hang", "detail": "x"}],
			"trigger_events": [{"ts_ns": -4, "kind": "watchdog", "core": 0}]}`), "negative"},
	})
}
