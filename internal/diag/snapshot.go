package diag

import (
	"encoding/json"
	"fmt"
)

// Run snapshot schema. internal/obs emits one snapshot per run
// (<base>.snapshot.json): a provenance manifest plus one named section per
// subsystem. Most sections are the subsystems' Stats structs as-is; the
// sections below have a fixed schema and are checked when present.

// ValidateSnapshot checks a run telemetry document (obs.Snapshot JSON):
// a manifest object carrying provenance (go_version, gomaxprocs) and a
// sections object holding the per-subsystem stats. When present, the
// "latency" section (runtime-health histograms), the "flight" section
// (fired flight-recorder triggers) and the "trace" section (event counts)
// are checked against their schemas too.
func ValidateSnapshot(data []byte) error {
	var doc struct {
		Manifest *struct {
			GoVersion  string `json:"go_version"`
			GOMAXPROCS int    `json:"gomaxprocs"`
		} `json:"manifest"`
		Sections map[string]json.RawMessage `json:"sections"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("diag: snapshot: %w", err)
	}
	if doc.Manifest == nil {
		return fmt.Errorf("diag: snapshot has no manifest")
	}
	if doc.Manifest.GoVersion == "" {
		return fmt.Errorf("diag: snapshot manifest has empty go_version")
	}
	if doc.Manifest.GOMAXPROCS < 1 {
		return fmt.Errorf("diag: snapshot manifest gomaxprocs %d < 1", doc.Manifest.GOMAXPROCS)
	}
	if doc.Sections == nil {
		return fmt.Errorf("diag: snapshot has no sections")
	}
	for _, sec := range []struct {
		name  string
		check func([]byte) error
	}{
		{"latency", validateLatency},
		{"flight", validateFlight},
		{"trace", validateTraceSection},
	} {
		if raw, ok := doc.Sections[sec.name]; ok {
			if err := sec.check(raw); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateLatency checks the "latency" section: a non-empty histogram
// list where every entry is named, carries a unit, has a count consistent
// with its bucket array, and reports ordered non-negative quantiles.
func validateLatency(data []byte) error {
	var sec struct {
		Histograms []struct {
			Name    string   `json:"name"`
			Unit    string   `json:"unit"`
			Count   uint64   `json:"count"`
			Buckets []uint64 `json:"buckets"`
			P50     float64  `json:"p50"`
			P90     float64  `json:"p90"`
			P99     float64  `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &sec); err != nil {
		return fmt.Errorf("diag: snapshot latency section: %w", err)
	}
	if len(sec.Histograms) == 0 {
		return fmt.Errorf("diag: snapshot latency section has no histograms")
	}
	for i, h := range sec.Histograms {
		if h.Name == "" {
			return fmt.Errorf("diag: latency histogram %d has no name", i)
		}
		if h.Unit == "" {
			return fmt.Errorf("diag: latency histogram %q has no unit", h.Name)
		}
		var bucketed uint64
		for _, b := range h.Buckets {
			bucketed += b
		}
		if bucketed != h.Count {
			return fmt.Errorf("diag: latency histogram %q count %d != bucket total %d", h.Name, h.Count, bucketed)
		}
		if h.P50 < 0 || h.P90 < 0 || h.P99 < 0 {
			return fmt.Errorf("diag: latency histogram %q has a negative quantile", h.Name)
		}
		if h.P50 > h.P90 || h.P90 > h.P99 {
			return fmt.Errorf("diag: latency histogram %q quantiles are not ordered (p50 %g, p90 %g, p99 %g)", h.Name, h.P50, h.P90, h.P99)
		}
	}
	return nil
}

// validateFlight checks the "flight" section: at least one fired trigger
// with a non-empty kind and detail, and schema-valid trigger events. The
// section exists only when a trigger fired.
func validateFlight(data []byte) error {
	var sec struct {
		Triggers []struct {
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		} `json:"triggers"`
		TriggerEvents []TraceEvent `json:"trigger_events"`
	}
	if err := json.Unmarshal(data, &sec); err != nil {
		return fmt.Errorf("diag: snapshot flight section: %w", err)
	}
	if len(sec.Triggers) == 0 {
		return fmt.Errorf("diag: snapshot flight section fired no triggers (an untriggered recorder adds no section)")
	}
	for i, tr := range sec.Triggers {
		if tr.Kind == "" {
			return fmt.Errorf("diag: flight trigger %d has no kind", i)
		}
		if tr.Detail == "" {
			return fmt.Errorf("diag: flight trigger %d (%s) has no detail", i, tr.Kind)
		}
	}
	for i := range sec.TriggerEvents {
		if err := sec.TriggerEvents[i].Validate(); err != nil {
			return fmt.Errorf("diag: flight trigger event %d: %w", i, err)
		}
	}
	return nil
}

// validateTraceSection checks the "trace" section's event summary: the
// captured event count is non-negative.
func validateTraceSection(data []byte) error {
	var sec struct {
		Events int `json:"events"`
	}
	if err := json.Unmarshal(data, &sec); err != nil {
		return fmt.Errorf("diag: snapshot trace section: %w", err)
	}
	if sec.Events < 0 {
		return fmt.Errorf("diag: snapshot trace section events %d is negative", sec.Events)
	}
	return nil
}
