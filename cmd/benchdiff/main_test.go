package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

const committed = "../../BENCH_micro.txt"

// gate runs benchdiff on the committed baseline with fresh as standard
// input and returns the exit status and standard output.
func gate(t *testing.T, fresh string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{committed}, strings.NewReader(fresh), &stdout, &stderr)
	t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	return code, stdout.String()
}

// baseline returns the committed bench output.
func baseline(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// rewrite returns text with every result line of the named benchmark
// passed through edit; edit returning "" drops the line.
func rewrite(text, name string, edit func(fields []string) string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == name {
			line = edit(f)
			if line == "" {
				continue
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// scaled multiplies a result line's ns/op by factor.
func scaled(t *testing.T, factor float64) func(fields []string) string {
	return func(f []string) string {
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] == "ns/op" {
				ns, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					t.Fatal(err)
				}
				f[i] = strconv.FormatFloat(ns*factor, 'f', 2, 64)
			}
		}
		return strings.Join(f, "\t")
	}
}

// TestCommittedBaselineParses pins that BENCH_micro.txt holds every
// queue-transit and kernel-firing row at both GOMAXPROCS levels, and that
// it passes its own gate.
func TestCommittedBaselineParses(t *testing.T) {
	f, err := os.Open(committed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[string]int{}
	for name := range rows {
		if strings.HasSuffix(name, "-2") {
			if _, ok := rows[strings.TrimSuffix(name, "-2")]; !ok {
				t.Errorf("%s has no GOMAXPROCS=1 row", name)
			}
			continue
		}
		if _, ok := rows[name+"-2"]; !ok {
			t.Errorf("%s has no GOMAXPROCS=2 row", name)
		}
		perLayer[strings.SplitN(name, "/", 2)[0]]++
	}
	// 7 transit variants; 4 kernels x 3 firing paths.
	if perLayer["BenchmarkQueueTransfer"] != 7 || perLayer["BenchmarkKernelFiring"] != 12 {
		t.Errorf("rows per benchmark at GOMAXPROCS=1 = %v, want 7 QueueTransfer and 12 KernelFiring", perLayer)
	}
	if code, _ := gate(t, baseline(t)); code != 0 {
		t.Errorf("baseline against itself: exit %d, want 0", code)
	}
}

func TestPlantedSlowdownFails(t *testing.T) {
	name := "BenchmarkQueueTransfer/GuardedTransit/off-2"
	code, out := gate(t, rewrite(baseline(t), name, scaled(t, 2)))
	if code != 1 {
		t.Errorf("2x slowdown of %s: exit %d, want 1", name, code)
	}
	if !strings.Contains(out, "FATAL") {
		t.Error("no FATAL row printed")
	}
}

func TestDroppedMetricFails(t *testing.T) {
	name := "BenchmarkKernelFiring/fir/batch"
	code, out := gate(t, rewrite(baseline(t), name, func([]string) string { return "" }))
	if code != 1 {
		t.Errorf("%s dropped from the fresh run: exit %d, want 1", name, code)
	}
	if !strings.Contains(out, name+" ") || !strings.Contains(out, "DROPPED") {
		t.Errorf("dropped row %s not reported", name)
	}
}

// TestWithinBandPasses slows one row into the warn band and every other
// row a little: the gate warns but passes.
func TestWithinBandPasses(t *testing.T) {
	fresh := baseline(t)
	rows, err := parseBench(strings.NewReader(fresh))
	if err != nil {
		t.Fatal(err)
	}
	warned := "BenchmarkKernelFiring/mdct/abft-2"
	for name := range rows {
		factor := 1.2
		if name == warned {
			factor = 1.9
		}
		fresh = rewrite(fresh, name, scaled(t, factor))
	}
	code, out := gate(t, fresh)
	if code != 0 {
		t.Errorf("within-band run: exit %d, want 0", code)
	}
	if !strings.Contains(out, "WARN") {
		t.Errorf("%s at 1.9x baseline did not warn", warned)
	}
}

// TestUnusableInputExits2 pins the usage/parse contract: a missing
// baseline argument, or a fresh run with no result lines (the output of a
// build failure), is exit 2, not a pass.
func TestUnusableInputExits2(t *testing.T) {
	var out bytes.Buffer
	if code := run(nil, strings.NewReader(baseline(t)), &out, &out); code != 2 {
		t.Errorf("no baseline argument: exit %d, want 2", code)
	}
	if code, _ := gate(t, "# commguard/internal/stream\nbuild failed\nFAIL\n"); code != 2 {
		t.Errorf("fresh run without results: exit %d, want 2", code)
	}
	bad := rewrite(baseline(t), "BenchmarkQueueTransfer/PushPop", func(f []string) string {
		f[2] = "NaNx"
		return strings.Join(f, "\t")
	})
	if code, _ := gate(t, bad); code != 2 {
		t.Errorf("unparsable ns/op: exit %d, want 2", code)
	}
}
