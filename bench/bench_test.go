package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q %q, program %q %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range slices.Concat(endToEnd, ungated, perLayer) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for two one-round slices,
// untraced and traced, at seed base 1, whose fault-campaign digests are
// in golden.json. A failed run, a golden mismatch or a failed closure
// check all count in Failed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			b, err := prepare(w, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				r := b.measure(1e-3, 2, traced)
				if r.Failed != 0 || !r.Correct {
					t.Errorf("traced=%v: %d of %d runs failed: %v", traced, r.Failed, r.Attempted, r.Errors)
				}
				if w.injects() && r.Golden != "verified" {
					t.Errorf("golden %q at seed base 1", r.Golden)
				}
				checkLine(t, r)
			}
		})
	}
}

// checkLine checks the one-line JSON summary: exactly the documented keys,
// and every metric of the mode with its unit and a finite value.
func checkLine(t *testing.T, r *result) {
	t.Helper()
	var buf bytes.Buffer
	if err := printLine(&buf, r); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("summary keys %v", keys)
	}
	var metrics map[string]valueUnit
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	defs := defsFor(r)
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
			t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-sets", "3"},
		{"-sets", "2", "-trace", "1"},
		{"extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}
