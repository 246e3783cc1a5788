package diag

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Trace schema. internal/obs emits the event trace in these shapes;
// cmd/tracecheck and CI validate artifacts against them, the same way
// Report standardizes the static-analysis tools' findings.

// TraceEvent is one line of the trace JSONL stream.
type TraceEvent struct {
	// TS is nanoseconds since the trace started.
	TS int64 `json:"ts_ns"`
	// Kind is the event type slug ("am-transition", "queue-publish", ...).
	Kind string `json:"kind"`
	// Core is the emitting core's ID; CoreName labels it when known.
	Core     int    `json:"core"`
	CoreName string `json:"core_name,omitempty"`
	// Queue scopes queue events; nil for core-only events.
	Queue     *int   `json:"queue,omitempty"`
	QueueName string `json:"queue_name,omitempty"`
	// Args carries the kind-specific payload (scalar values only).
	Args map[string]any `json:"args,omitempty"`
}

// Validate reports whether the event satisfies the trace schema.
func (e *TraceEvent) Validate() error {
	if e.TS < 0 {
		return fmt.Errorf("diag: trace event ts_ns %d is negative", e.TS)
	}
	if e.Kind == "" {
		return fmt.Errorf("diag: trace event has empty kind")
	}
	if e.Core < 0 {
		return fmt.Errorf("diag: trace event core %d is negative", e.Core)
	}
	if e.Queue != nil && *e.Queue < 0 {
		return fmt.Errorf("diag: trace event queue %d is negative", *e.Queue)
	}
	for k, v := range e.Args {
		switch v.(type) {
		case nil, bool, string, float64, json.Number:
		default:
			return fmt.Errorf("diag: trace event arg %q is not a scalar (%T)", k, v)
		}
	}
	return nil
}

// ValidateTraceJSONL reads a JSONL trace stream and validates every line,
// returning the number of valid events. Timestamps must be non-decreasing
// (the merged stream is time-ordered).
func ValidateTraceJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	var prevTS int64
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return n, fmt.Errorf("diag: trace line %d: %w", n+1, err)
		}
		if err := ev.Validate(); err != nil {
			return n, fmt.Errorf("line %d: %w", n+1, err)
		}
		if ev.TS < prevTS {
			return n, fmt.Errorf("diag: trace line %d: ts_ns %d decreases (previous %d)", n+1, ev.TS, prevTS)
		}
		prevTS = ev.TS
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

// ValidateChromeTrace checks the minimal Chrome trace-event JSON contract
// Perfetto requires: a top-level traceEvents array whose entries carry a
// phase, pid, tid and timestamp.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			PID *int     `json:"pid"`
			TID *int     `json:"tid"`
			TS  *float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("diag: chrome trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("diag: chrome trace has no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			return fmt.Errorf("diag: chrome trace event %d has no phase", i)
		}
		if ev.PID == nil || ev.TID == nil || ev.TS == nil {
			return fmt.Errorf("diag: chrome trace event %d is missing pid/tid/ts", i)
		}
	}
	return nil
}
