package obs

import (
	"fmt"

	"commguard/internal/diag"
)

// Flight recorder: the trace rings already run continuously at negligible
// cost (fixed-size per-core buffers, oldest records overwritten), so the
// expensive part of tracing — serializing artifacts — can be deferred
// until something goes wrong. FlightOptions holds the trigger policy; the
// run evaluates it post-join against the collected trace and run metrics,
// and only a fired trigger turns the in-memory rings into files (the
// trace pair plus the run snapshot, whose "flight" section records why).

// FlightOptions is the trigger policy of a flight recorder. The zero
// value never triggers; each field arms one trigger class, and any armed
// policy also fires a "hang" trigger when the run is cancelled before it
// completes (the campaign watchdog's kill).
type FlightOptions struct {
	// Path is the artifact base: a fired trigger writes the standard trace
	// pair Path+".trace.json"/Path+".jsonl" and the run snapshot
	// Path+".snapshot.json" carrying a "flight" section.
	Path string
	// Watchdog triggers when the trace contains a PPU loop-guard refusal
	// (KindWatchdog).
	Watchdog bool
	// QualityFloorDB triggers when output quality falls below this floor
	// (dB; 0 disables — note 0 dB itself cannot be used as a floor).
	QualityFloorDB float64
	// SlowPathPerKItems triggers when queue push/pop timeouts exceed this
	// rate per 1000 delivered items (0 disables).
	SlowPathPerKItems float64
	// FaultsPerKInstr triggers on a fault storm: manifested faults per
	// 1000 committed instructions above this rate (0 disables).
	FaultsPerKInstr float64
}

// Armed reports whether any trigger class is configured.
func (o FlightOptions) Armed() bool {
	return o.Watchdog || o.QualityFloorDB != 0 || o.SlowPathPerKItems > 0 || o.FaultsPerKInstr > 0
}

// Trigger is one fired trigger: its class and a human-readable detail.
type Trigger struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// FlightMetrics are the end-of-run aggregates the threshold triggers
// evaluate against.
type FlightMetrics struct {
	// QualityDB is the run's output quality (NaN/0 when unmeasured).
	QualityDB float64
	// Items is the total item count delivered through guarded queues.
	Items uint64
	// Timeouts is the total queue push+pop timeout count.
	Timeouts uint64
	// Faults is the total manifested fault count.
	Faults uint64
	// Instructions is the total committed instruction count.
	Instructions uint64
}

// FlightSection is the "flight" section of a run snapshot: the fired
// triggers in firing order, plus the trace events that caused
// event-scoped triggers (the watchdog refusals), so the snapshot contains
// its own cause even if the trace pair is discarded. Its shape is the one
// internal/diag's ValidateSnapshot checks.
type FlightSection struct {
	Triggers      []Trigger         `json:"triggers"`
	TriggerEvents []diag.TraceEvent `json:"trigger_events,omitempty"`
}

// Evaluate applies the armed triggers to the run's aggregates and scans
// the trace (nil is accepted) for watchdog refusals. Call after the run's
// goroutines have joined. It returns nil when no trigger fired.
func (o FlightOptions) Evaluate(m FlightMetrics, tr *Trace) *FlightSection {
	var s FlightSection
	fire := func(kind, format string, args ...any) {
		s.Triggers = append(s.Triggers, Trigger{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if o.Watchdog && tr != nil {
		n := 0
		for _, e := range tr.Events {
			if e.Kind == KindWatchdog {
				if n == 0 {
					s.TriggerEvents = append(s.TriggerEvents, tr.diagEvent(e))
				}
				n++
			}
		}
		if n > 0 {
			fire("watchdog", "%d loop-guard refusals in trace", n)
		}
	}
	if o.QualityFloorDB != 0 && m.QualityDB == m.QualityDB && m.QualityDB < o.QualityFloorDB {
		fire("quality", "quality %g dB below floor %g dB", m.QualityDB, o.QualityFloorDB)
	}
	if o.SlowPathPerKItems > 0 && m.Items > 0 {
		if rate := float64(m.Timeouts) * 1000 / float64(m.Items); rate > o.SlowPathPerKItems {
			fire("slow-path", "%g queue timeouts per 1000 items (threshold %g)", rate, o.SlowPathPerKItems)
		}
	}
	if o.FaultsPerKInstr > 0 && m.Instructions > 0 {
		if rate := float64(m.Faults) * 1000 / float64(m.Instructions); rate > o.FaultsPerKInstr {
			fire("fault-storm", "%g manifested faults per 1000 instructions (threshold %g)", rate, o.FaultsPerKInstr)
		}
	}
	if len(s.Triggers) == 0 {
		return nil
	}
	return &s
}
