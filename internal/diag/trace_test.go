package diag

import (
	"strings"
	"testing"
)

func TestTraceEventValidate(t *testing.T) {
	q := 0
	valid := TraceEvent{TS: 10, Kind: "frame-start", Core: 0, Queue: &q,
		Args: map[string]any{"fc": float64(3), "name": "x", "ok": true, "null": nil}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}

	bad := []struct {
		name string
		ev   TraceEvent
	}{
		{"negative ts", TraceEvent{TS: -1, Kind: "k"}},
		{"empty kind", TraceEvent{TS: 0}},
		{"negative core", TraceEvent{TS: 0, Kind: "k", Core: -1}},
		{"negative queue", TraceEvent{TS: 0, Kind: "k", Queue: func() *int { n := -2; return &n }()}},
		{"non-scalar arg", TraceEvent{TS: 0, Kind: "k", Args: map[string]any{"v": []any{1}}}},
	}
	for _, tc := range bad {
		if err := tc.ev.Validate(); err == nil {
			t.Errorf("%s: event accepted, want error", tc.name)
		}
	}
}

func TestValidateTraceJSONL(t *testing.T) {
	good := `{"ts_ns":1,"kind":"frame-start","core":0}
{"ts_ns":2,"kind":"am-transition","core":1,"queue":0,"args":{"from":"RcvCmp","to":"ExpHdr"}}

{"ts_ns":2,"kind":"core-eoc","core":0}
`
	n, err := ValidateTraceJSONL(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if n != 3 { // blank line skipped
		t.Errorf("validated %d events, want 3", n)
	}

	for name, stream := range map[string]string{
		"decreasing ts": `{"ts_ns":5,"kind":"a","core":0}` + "\n" + `{"ts_ns":4,"kind":"b","core":0}`,
		"broken json":   `{"ts_ns":1,`,
		"schema error":  `{"ts_ns":1,"kind":"","core":0}`,
	} {
		if _, err := ValidateTraceJSONL(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: stream accepted, want error", name)
		}
	}
}

func TestValidateChromeTrace(t *testing.T) {
	good := `{"traceEvents":[{"name":"x","ph":"i","ts":1.5,"pid":1,"tid":0,"s":"t"},{"name":"m","ph":"M","ts":0,"pid":1,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(good)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"empty events": `{"traceEvents":[]}`,
		"no phase":     `{"traceEvents":[{"ts":1,"pid":1,"tid":0}]}`,
		"missing tid":  `{"traceEvents":[{"ph":"i","ts":1,"pid":1}]}`,
		"not json":     `[]`,
	} {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: trace accepted, want error", name)
		}
	}
}
