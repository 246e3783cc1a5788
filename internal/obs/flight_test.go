package obs_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"commguard/internal/diag"
	"commguard/internal/obs"
)

// TestFlightWatchdogDump pins that a watchdog-fired flight section
// contains the triggering event itself.
func TestFlightWatchdogDump(t *testing.T) {
	tr := obs.NewTracer(2, 16)
	r0, r1 := tr.Ring(0), tr.Ring(1)
	r0.FrameStart(1)
	r1.FrameStart(1)
	r1.Watchdog(4096)
	r0.EndOfComputation()
	trace := tr.Collect([]string{"src", "snk"}, nil)

	sec := obs.FlightOptions{Watchdog: true}.Evaluate(obs.FlightMetrics{}, trace)
	if sec == nil {
		t.Fatal("watchdog refusal in trace did not trigger")
	}
	if len(sec.Triggers) != 1 || sec.Triggers[0].Kind != "watchdog" {
		t.Fatalf("triggers = %+v, want one watchdog trigger", sec.Triggers)
	}
	if len(sec.TriggerEvents) != 1 {
		t.Fatalf("trigger events = %+v, want the one watchdog refusal", sec.TriggerEvents)
	}
	e := sec.TriggerEvents[0]
	if e.Kind != "watchdog" || e.Core != 1 || e.CoreName != "snk" {
		t.Errorf("trigger event = %+v, want core 1 (snk) watchdog", e)
	}
	if e.Args["bound"] != uint64(4096) {
		t.Errorf("trigger event bound = %v (%T), want 4096", e.Args["bound"], e.Args["bound"])
	}
	snap := obs.NewSnapshot(obs.NewManifest())
	snap.Add("flight", sec)
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := diag.ValidateSnapshot(buf.Bytes()); err != nil {
		t.Errorf("flight section fails the snapshot schema: %v", err)
	}
}

func TestFlightThresholdTriggers(t *testing.T) {
	cases := []struct {
		name   string
		opts   obs.FlightOptions
		m      obs.FlightMetrics
		kind   string // "" = must not trigger
		detail string // substring the detail must contain
	}{
		{"quality-below-floor", obs.FlightOptions{QualityFloorDB: 30}, obs.FlightMetrics{QualityDB: 12.5}, "quality", "12.5 dB below floor 30 dB"},
		{"quality-ok", obs.FlightOptions{QualityFloorDB: 30}, obs.FlightMetrics{QualityDB: 45}, "", ""},
		{"slow-path-spike", obs.FlightOptions{SlowPathPerKItems: 1}, obs.FlightMetrics{Items: 1000, Timeouts: 50}, "slow-path", "50 queue timeouts"},
		{"slow-path-ok", obs.FlightOptions{SlowPathPerKItems: 100}, obs.FlightMetrics{Items: 1000, Timeouts: 50}, "", ""},
		{"fault-storm", obs.FlightOptions{FaultsPerKInstr: 0.1}, obs.FlightMetrics{Instructions: 10000, Faults: 10}, "fault-storm", "(threshold 0.1)"},
		// A threshold below the fixed-point precision must still print.
		{"fault-storm-tiny-threshold", obs.FlightOptions{FaultsPerKInstr: 0.000001}, obs.FlightMetrics{Instructions: 1e9, Faults: 10}, "fault-storm", "1e-05 manifested faults per 1000 instructions (threshold 1e-06)"},
		{"fault-rate-ok", obs.FlightOptions{FaultsPerKInstr: 10}, obs.FlightMetrics{Instructions: 10000, Faults: 10}, "", ""},
		{"disarmed", obs.FlightOptions{}, obs.FlightMetrics{QualityDB: -100, Timeouts: 1e6, Items: 1, Faults: 1e6, Instructions: 1}, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec := tc.opts.Evaluate(tc.m, nil)
			if tc.kind == "" {
				if sec != nil {
					t.Fatalf("unexpected triggers %+v", sec.Triggers)
				}
				return
			}
			if sec == nil || len(sec.Triggers) != 1 || sec.Triggers[0].Kind != tc.kind {
				t.Fatalf("flight = %+v, want one %q trigger", sec, tc.kind)
			}
			if d := sec.Triggers[0].Detail; !strings.Contains(d, tc.detail) {
				t.Errorf("detail %q does not contain %q", d, tc.detail)
			}
		})
	}
}

// An armed policy that nothing trips yields no flight section, so the run
// writes no artifacts.
func TestFlightUntriggeredDumpIsNoop(t *testing.T) {
	tr := obs.NewTracer(1, 8)
	tr.Ring(0).FrameStart(1)
	trace := tr.Collect([]string{"src"}, nil)
	opts := obs.FlightOptions{Watchdog: true, QualityFloorDB: 10, FaultsPerKInstr: 1}
	if sec := opts.Evaluate(obs.FlightMetrics{QualityDB: 40, Instructions: 1000}, trace); sec != nil {
		t.Fatalf("untriggered evaluation fired %+v", sec.Triggers)
	}
	// Unmeasured quality (NaN) never trips the floor; a nil trace never
	// trips the watchdog.
	if sec := opts.Evaluate(obs.FlightMetrics{QualityDB: math.NaN()}, nil); sec != nil {
		t.Fatalf("NaN quality or nil trace fired %+v", sec.Triggers)
	}
}

func TestFlightOptionsArmed(t *testing.T) {
	if (obs.FlightOptions{}).Armed() {
		t.Error("zero options report armed")
	}
	for _, o := range []obs.FlightOptions{
		{Watchdog: true},
		{QualityFloorDB: 20},
		{SlowPathPerKItems: 1},
		{FaultsPerKInstr: 0.5},
	} {
		if !o.Armed() {
			t.Errorf("%+v reports disarmed", o)
		}
	}
}
