package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// Live progress: long sweeps count per-figure jobs in a Progress, and
// ListenAndServe exposes the counters as OpenMetrics text at /metrics so
// an operator (or a standard scraper such as Prometheus) can watch a
// multi-hour RunAll instead of a silent terminal.

// Progress holds sweep progress counters. The zero value is ready to use.
// All methods are safe for concurrent use and safe on a nil receiver
// (progress reporting disabled).
type Progress struct {
	mu    sync.Mutex
	phase string
	done  atomic.Int64
	total atomic.Int64
	// Campaign-lifetime counters (not reset by StartPhase): watchdog
	// retries, jobs classified as hung, and journal-resume skips.
	retried atomic.Int64
	hung    atomic.Int64
	skipped atomic.Int64
}

// StartPhase marks a new named phase (figure, sweep) with total pending
// jobs, resetting the job counters.
func (p *Progress) StartPhase(name string, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.phase = name
	p.done.Store(0)
	p.total.Store(int64(total))
}

// JobDone increments the completed-job counter of the current phase.
func (p *Progress) JobDone() {
	if p == nil {
		return
	}
	p.done.Add(1)
}

// JobRetried counts one watchdog-triggered retry of a job attempt.
func (p *Progress) JobRetried() {
	if p == nil {
		return
	}
	p.retried.Add(1)
}

// JobHung counts a job abandoned as hung after exhausting its retries.
func (p *Progress) JobHung() {
	if p == nil {
		return
	}
	p.hung.Add(1)
}

// JobSkipped counts a job skipped because the resume journal already holds
// its result.
func (p *Progress) JobSkipped() {
	if p == nil {
		return
	}
	p.skipped.Add(1)
}

// CampaignCounts returns the campaign-lifetime (retried, hung, skipped)
// counters. Unlike Counts these survive StartPhase resets.
func (p *Progress) CampaignCounts() (retried, hung, skipped int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.retried.Load(), p.hung.Load(), p.skipped.Load()
}

// Counts returns the current phase's (done, total) job counters.
func (p *Progress) Counts() (done, total int64) {
	if p == nil {
		return 0, 0
	}
	return p.done.Load(), p.total.Load()
}

// Phase returns the current phase name ("" before the first StartPhase).
func (p *Progress) Phase() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phase
}

// WriteOpenMetrics renders p's counters in the OpenMetrics text format:
// the phase as an info metric and the job counters as gauges, terminated
// by the mandatory # EOF marker. A nil p writes only the marker.
func WriteOpenMetrics(w io.Writer, p *Progress) {
	if p != nil {
		done, total := p.Counts()
		retried, hung, skipped := p.CampaignCounts()
		if phase := p.Phase(); phase != "" {
			fmt.Fprintf(w, "# TYPE commguard_phase info\n")
			fmt.Fprintf(w, "commguard_phase_info{phase=%q} 1\n", phase)
		}
		for _, g := range []struct {
			name string
			v    int64
		}{
			{"jobs_done", done}, {"jobs_total", total},
			{"jobs_retried", retried}, {"jobs_hung", hung}, {"jobs_skipped", skipped},
		} {
			fmt.Fprintf(w, "# TYPE commguard_%s gauge\n", g.name)
			fmt.Fprintf(w, "commguard_%s %d\n", g.name, g.v)
		}
	}
	fmt.Fprintf(w, "# EOF\n")
}

// ListenAndServe serves p's counters as OpenMetrics text at GET /metrics
// on addr, from a mux of its own, in a background goroutine that lives
// for the rest of the process. Serve errors (port in use...) are reported
// through errf.
func ListenAndServe(addr string, p *Progress, errf func(format string, args ...any)) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		WriteOpenMetrics(w, p)
	})
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil && errf != nil {
			errf("obs: listen %s: %v\n", addr, err)
		}
	}()
}
