package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"commguard/internal/obs"
	"commguard/internal/obs/hist"
)

func findSummary(t *testing.T, sums []hist.Summary, name string) hist.Summary {
	t.Helper()
	for _, s := range sums {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %q summary in %v", name, sums)
	return hist.Summary{}
}

func TestDetectorLatency(t *testing.T) {
	h := obs.NewHealth(2)
	d := h.NewDetector(1, 0) // consumer on core 1 watching producer core 0
	d.Observe(5)
	if d.Armed() {
		t.Fatal("armed before any fault")
	}
	h.MarkFault(0)
	d.Observe(10)
	if !d.Armed() {
		t.Fatal("not armed after fault + observe")
	}
	d.Observe(11)
	d.Detect(15)
	if d.Armed() {
		t.Fatal("still armed after detect")
	}
	sums := h.Summaries()
	items := findSummary(t, sums, "detect_items")
	if items.Count != 1 || items.Sum != 5 {
		t.Errorf("detect_items count=%d sum=%d, want 1 and 5 (armed at 10, detected at 15)", items.Count, items.Sum)
	}
	wall := findSummary(t, sums, "detect_wall")
	if wall.Count != 1 {
		t.Errorf("detect_wall count=%d, want 1", wall.Count)
	}
	// A detection with nothing armed records nothing.
	d.Detect(20)
	if got := findSummary(t, h.Summaries(), "detect_items").Count; got != 1 {
		t.Errorf("unarmed Detect recorded (count %d)", got)
	}
}

func TestDetectorFirstFaultWins(t *testing.T) {
	h := obs.NewHealth(2)
	d := h.NewDetector(1, 0)
	h.MarkFault(0)
	d.Observe(10) // arms at 10
	h.MarkFault(0)
	d.Observe(20) // second fault while armed: measurement stays anchored at 10
	d.Detect(30)
	items := findSummary(t, h.Summaries(), "detect_items")
	if items.Count != 1 || items.Sum != 20 {
		t.Errorf("detect_items count=%d sum=%d, want 1 and 20 (first fault wins)", items.Count, items.Sum)
	}
	// Disarmed now; the next fault re-arms.
	h.MarkFault(0)
	d.Observe(40)
	if !d.Armed() {
		t.Fatal("not re-armed after post-detect fault")
	}
}

func TestDetectorObserveNoAllocs(t *testing.T) {
	h := obs.NewHealth(2)
	d := h.NewDetector(1, 0)
	items := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		items++
		d.Observe(items)
	}); allocs != 0 {
		t.Errorf("Detector.Observe allocates %.1f objects/op, want 0", allocs)
	}
	var nilD *obs.Detector
	if allocs := testing.AllocsPerRun(1000, func() { nilD.Observe(1) }); allocs != 0 {
		t.Errorf("nil Detector.Observe allocates %.1f objects/op, want 0", allocs)
	}
}

func TestHealthNilSafety(t *testing.T) {
	var h *obs.Health
	h.MarkFault(0) // must not panic
	if d := h.NewDetector(0, 1); d != nil {
		t.Error("nil Health.NewDetector != nil")
	}
	if s := h.Summaries(); s != nil {
		t.Error("nil Health.Summaries != nil")
	}
	pw, pub, ow, ret := h.QueueShards(0, 1)
	if pw != nil || pub != nil || ow != nil || ret != nil {
		t.Error("nil Health.QueueShards returned live shards")
	}
	ba, ab := h.FireShards(0)
	if ba != nil || ab != nil {
		t.Error("nil Health.FireShards returned live shards")
	}
	if sec := h.Section(); sec.Histograms != nil {
		t.Error("nil Health.Section has histograms")
	}
}

func TestHealthQueueAndFireShards(t *testing.T) {
	h := obs.NewHealth(3)
	pw, pub, ow, ret := h.QueueShards(0, 2)
	pw.Record(100)
	pub.Record(200)
	ow.Record(300)
	ret.Record(400)
	ba, ab := h.FireShards(1)
	ba.Record(20)
	ab.Record(30)
	for _, tc := range []struct {
		name string
		sum  uint64
	}{
		{"queue_push_wait", 100}, {"queue_publish", 200},
		{"queue_pop_wait", 300}, {"queue_return", 400},
		{"fire_batch", 20}, {"fire_abft", 30},
	} {
		s := findSummary(t, h.Summaries(), tc.name)
		if s.Count != 1 || s.Sum != tc.sum {
			t.Errorf("%s: count=%d sum=%d, want 1 and %d", tc.name, s.Count, s.Sum, tc.sum)
		}
	}
	// Out-of-range cores degrade to nil shards, not panics.
	pw2, _, _, _ := h.QueueShards(-1, 99)
	if pw2 != nil {
		t.Error("out-of-range QueueShards returned a live shard")
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	p := new(obs.Progress)
	p.StartPhase("Figure 8", 5)
	p.JobDone()
	p.JobHung()
	var buf bytes.Buffer
	obs.WriteOpenMetrics(&buf, p)
	out := buf.String()
	for _, want := range []string{
		"# TYPE commguard_phase info\n",
		`commguard_phase_info{phase="Figure 8"} 1` + "\n",
		"# TYPE commguard_jobs_done gauge\ncommguard_jobs_done 1\n",
		"commguard_jobs_total 5\n",
		"commguard_jobs_hung 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output must end with # EOF, got tail %q", out[max(0, len(out)-20):])
	}
	buf.Reset()
	obs.WriteOpenMetrics(&buf, nil)
	if buf.String() != "# EOF\n" {
		t.Errorf("nil progress wrote %q, want only the EOF marker", buf.String())
	}
}
