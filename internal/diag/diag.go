// Package diag is the shared machine-readable diagnostic schema
// commguard-vet emits under -json, so CI and editor tooling consume the
// findings of every analysis uniformly. It also carries the SARIF 2.1.0
// emitter (sarif.go) and the warning baseline (baseline.go) commguard-vet
// builds on.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Diagnostic is one analysis finding in the common schema. Fields that do
// not apply to a given analysis are left zero and omitted from the JSON
// encoding: graph findings carry App/Node/Edge, criticality findings carry
// File/Line/Col/Node (the filter name).
type Diagnostic struct {
	// Tool names the producing analysis ("graphcheck", "soundness",
	// "critmap", "repolint", "hotpath"); baseline fingerprints include it.
	Tool string `json:"tool"`
	// Code is the rule identifier (CG001, CM001, RL001, ...).
	Code string `json:"code"`
	// Severity is "error" or "warning".
	Severity string `json:"severity"`
	// App is the benchmark the finding belongs to, when app-scoped.
	App string `json:"app,omitempty"`
	// File/Line/Col anchor source-scoped findings.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	// Node names the graph node or filter the finding is about.
	Node string `json:"node,omitempty"`
	// Edge renders the edge ("src -> dst") for edge-scoped findings.
	Edge string `json:"edge,omitempty"`
	// Message states the defect; Fix suggests a remediation.
	Message string `json:"message"`
	Fix     string `json:"fix,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Tool        string       `json:"tool"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Errors counts severity=="error" diagnostics (the exit-1 subset).
	Errors int `json:"errors"`
}

// NewReport assembles a sorted report. Diagnostics order: file, line, col,
// app, code — stable across runs for golden tests and CI diffing.
func NewReport(tool string, ds []Diagnostic) *Report {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.App != b.App {
			return a.App < b.App
		}
		return a.Code < b.Code
	})
	errs := 0
	for _, d := range ds {
		if d.Severity == "error" {
			errs++
		}
	}
	if ds == nil {
		ds = []Diagnostic{}
	}
	return &Report{Tool: tool, Diagnostics: ds, Errors: errs}
}

// Write encodes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ValidateReport structurally validates a serialized report: named tool,
// non-nil diagnostics array, each entry carrying tool/code/message and a
// known severity, and an Errors count consistent with the entries. The
// CLI contract tests run every -json producer through this.
func ValidateReport(data []byte) error {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("diag: report: %w", err)
	}
	if r.Tool == "" {
		return fmt.Errorf("diag: report: empty tool")
	}
	var raw struct {
		Diagnostics json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("diag: report: %w", err)
	}
	if len(raw.Diagnostics) == 0 || string(raw.Diagnostics) == "null" {
		return fmt.Errorf("diag: report: diagnostics must be an array, not absent/null")
	}
	errs := 0
	for i, d := range r.Diagnostics {
		if d.Tool == "" || d.Code == "" || d.Message == "" {
			return fmt.Errorf("diag: report: diagnostic %d missing tool/code/message", i)
		}
		switch d.Severity {
		case "error":
			errs++
		case "warning":
		default:
			return fmt.Errorf("diag: report: diagnostic %d has severity %q", i, d.Severity)
		}
	}
	if errs != r.Errors {
		return fmt.Errorf("diag: report: errors field %d, counted %d", r.Errors, errs)
	}
	return nil
}
