// Command benchdiff gates performance regressions in the microbenchmarks.
// It reads `go test -bench` output on standard input and compares it with
// the committed baseline, BENCH_micro.txt, which holds the same format:
//
//	go test -run=NONE -bench='QueueTransfer|KernelFiring' -cpu 1,2 -count 3 \
//	    -benchtime 200ms ./internal/commguard ./internal/stream |
//	    go run ./cmd/benchdiff BENCH_micro.txt
//
// Each benchmark name, its -N GOMAXPROCS suffix included, is one metric:
// the median ns/op over its -count reps. The median, not the minimum:
// reps run back to back, and one rep can land far from the rest in either
// direction (the committed QueueTransfer/PushPop-2 row has one 76 ns rep
// beside nine of 137-180 ns), so a minimum would gate against a single
// lucky rep. With -count 3 no one rep moves the median.
//
// A metric more than 1.5x its baseline prints WARN; at 2x or beyond it
// fails the gate. Absolute ns/op varies across machines, so the bands are
// wide: warnings absorb runner noise, and only a 2x slowdown (an
// algorithmic regression, not jitter) breaks the build. Both sides come
// from the same benchmark code, so a baseline metric missing from the
// fresh run (a renamed, deleted or failed benchmark) fails the gate too.
// A fresh metric the baseline lacks is listed but not gated until its
// numbers are committed.
//
// Exit status: 0 when every baseline metric is present and none is fatal
// (warnings included), 1 otherwise, 2 on usage or parse errors.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// A metric above warnRatio times its baseline warns; at fatalRatio or
// beyond it fails the gate.
const (
	warnRatio  = 1.5
	fatalRatio = 2.0
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run gates the fresh bench output against the baseline file named by
// args and returns the exit status.
func run(args []string, fresh io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: go test -bench ... | benchdiff baseline.txt")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	defer f.Close()
	base, err := parseBench(f)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: baseline %s: %v\n", args[0], err)
		return 2
	}
	cur, err := parseBench(fresh)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff: fresh run:", err)
		return 2
	}

	type delta struct {
		name        string
		base, fresh float64
	}
	var deltas []delta
	var dropped, added []string
	for name, b := range base {
		if c, ok := cur[name]; ok {
			deltas = append(deltas, delta{name, b, c})
		} else {
			dropped = append(dropped, name)
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		ri, rj := deltas[i].fresh/deltas[i].base, deltas[j].fresh/deltas[j].base
		if ri != rj {
			return ri > rj
		}
		return deltas[i].name < deltas[j].name
	})
	sort.Strings(dropped)
	sort.Strings(added)

	warns, fatals := 0, 0
	fmt.Fprintf(stdout, "%-50s %12s %12s %8s  %s\n", "benchmark", "baseline", "fresh", "ratio", "level")
	for _, d := range deltas {
		ratio := d.fresh / d.base
		level := "ok"
		switch {
		case ratio >= fatalRatio:
			level = "FATAL"
			fatals++
		case ratio > warnRatio:
			level = "WARN"
			warns++
		}
		fmt.Fprintf(stdout, "%-50s %10.1fns %10.1fns %7.2fx  %s\n", d.name, d.base, d.fresh, ratio, level)
	}
	for _, name := range dropped {
		fmt.Fprintf(stdout, "%-50s missing from the fresh run  DROPPED\n", name)
	}
	for _, name := range added {
		fmt.Fprintf(stdout, "%-50s not in the baseline (not gated)\n", name)
	}
	if warns > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d benchmark(s) above %.1fx baseline\n", warns, warnRatio)
	}
	failed := false
	if fatals > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d benchmark(s) at or beyond %.1fx baseline\n", fatals, fatalRatio)
		failed = true
	}
	if len(dropped) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d baseline benchmark(s) missing from the fresh run\n", len(dropped))
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// parseBench returns the median ns/op per benchmark name in `go test
// -bench` output. Lines that are not result lines (package headers, PASS,
// log output) are skipped.
func parseBench(r io.Reader) (map[string]float64, error) {
	reps := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] != "ns/op" {
				continue
			}
			ns, err := strconv.ParseFloat(f[i], 64)
			if err != nil || ns <= 0 {
				return nil, fmt.Errorf("%s: bad ns/op %q", f[0], f[i])
			}
			reps[f[0]] = append(reps[f[0]], ns)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reps) == 0 {
		return nil, errors.New("no benchmark results")
	}
	medians := make(map[string]float64, len(reps))
	for name, ns := range reps {
		sort.Float64s(ns)
		m := len(ns) / 2
		medians[name] = ns[m]
		if len(ns)%2 == 0 {
			medians[name] = (ns[m-1] + ns[m]) / 2
		}
	}
	return medians, nil
}
