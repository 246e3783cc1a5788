// Command tracecheck validates observability artifacts against the shared
// internal/diag schema: trace JSONL streams, Chrome trace-event JSON, and
// run telemetry snapshots. CI runs it over the artifacts a traced
// commguard-sim run produces.
//
// Usage:
//
//	tracecheck run.jsonl run.trace.json run.snapshot.json
//
// The file kind is chosen by suffix: .jsonl (trace event stream),
// .trace.json (Chrome trace-event JSON), .snapshot.json (run telemetry
// snapshot, including its latency and flight sections). Exit status is 1
// if any file fails validation, 2 on usage errors.
package main

import (
	"fmt"
	"os"
	"strings"

	"commguard/internal/diag"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run validates each artifact and returns the process exit status: 0
// when every file validates, 1 when any fails, 2 on usage errors.
func run(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <file>...")
		return 2
	}
	failed := false
	for _, path := range paths {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

func check(path string) error {
	switch {
	case strings.HasSuffix(path, ".jsonl"):
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := diag.ValidateTraceJSONL(f)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("no events")
		}
		fmt.Printf("%s: ok (%d events)\n", path, n)
		return nil
	case strings.HasSuffix(path, ".trace.json"):
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := diag.ValidateChromeTrace(data); err != nil {
			return err
		}
		fmt.Printf("%s: ok (chrome trace)\n", path)
		return nil
	case strings.HasSuffix(path, ".snapshot.json"):
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := diag.ValidateSnapshot(data); err != nil {
			return err
		}
		fmt.Printf("%s: ok (snapshot)\n", path)
		return nil
	}
	return fmt.Errorf("unknown artifact kind (want .jsonl, .trace.json or .snapshot.json)")
}
