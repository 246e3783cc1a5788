package obs_test

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"commguard/internal/diag"
	"commguard/internal/fault"
	"commguard/internal/obs"
)

func TestNilRingAndTracerAreSafe(t *testing.T) {
	var r *obs.Ring
	r.FrameStart(1)
	r.EndOfComputation()
	r.Watchdog(100)
	r.Fault(1, 2, 3)
	r.AMTransition(0, 0, 1, 2, 3)
	r.HIHeader(0, 1)
	r.HIEOC(0)
	r.QueuePublish(0, 1, 2)
	r.QueueReturn(0, 1)
	r.PushTimeout(0)
	r.PopTimeout(0)

	var tr *obs.Tracer
	if tr.Ring(0) != nil {
		t.Error("nil tracer should hand out nil rings")
	}
	if tr.Collect(nil, nil) != nil {
		t.Error("nil tracer should collect nil")
	}
	tc := obs.NewTracer(2, 8)
	if tc.Ring(-1) != nil || tc.Ring(2) != nil {
		t.Error("out-of-range cores should hand out nil rings")
	}
	if tc.Ring(0) == nil || tc.Ring(1) == nil {
		t.Error("in-range cores should hand out rings")
	}
}

func TestRingWraparoundCountsDropped(t *testing.T) {
	tr := obs.NewTracer(1, 4)
	r := tr.Ring(0)
	for fc := uint32(0); fc < 10; fc++ {
		r.FrameStart(fc)
	}
	got := tr.Collect([]string{"core0"}, nil)
	if len(got.Events) != 4 {
		t.Fatalf("kept %d events, want ring capacity 4", len(got.Events))
	}
	if got.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", got.Dropped)
	}
	// Oldest-first: the survivors are the last four frame starts.
	for i, e := range got.Events {
		if want := uint32(6 + i); e.FC != want {
			t.Errorf("event %d FC = %d, want %d", i, e.FC, want)
		}
	}
}

func TestCollectMergesTimeOrdered(t *testing.T) {
	tr := obs.NewTracer(3, 16)
	// Interleave writes across rings; Nanos come from one shared clock so
	// the merged stream must be globally non-decreasing.
	for i := 0; i < 5; i++ {
		tr.Ring(i % 3).FrameStart(uint32(i))
	}
	got := tr.Collect([]string{"a", "b", "c"}, nil)
	if len(got.Events) != 5 {
		t.Fatalf("merged %d events, want 5", len(got.Events))
	}
	for i := 1; i < len(got.Events); i++ {
		if got.Events[i].Nanos < got.Events[i-1].Nanos {
			t.Fatalf("event %d time %d precedes event %d time %d",
				i, got.Events[i].Nanos, i-1, got.Events[i-1].Nanos)
		}
	}
}

// sampleTrace exercises every event kind across two cores and one queue.
func sampleTrace(t *testing.T) *obs.Trace {
	t.Helper()
	tr := obs.NewTracer(2, 64)
	prod, cons := tr.Ring(0), tr.Ring(1)
	prod.FrameStart(0)
	prod.HIHeader(0, 0)
	prod.QueuePublish(0, 1, 128)
	prod.PushTimeout(0)
	prod.Fault(2, 0, 12345)
	prod.HIEOC(0)
	prod.EndOfComputation()
	cons.FrameStart(0)
	cons.AMTransition(0, 0, 1, 0, 0) // RcvCmp -> ExpHdr
	cons.AMTransition(0, 1, 0, 0, 0) // ExpHdr -> RcvCmp
	cons.AMTransition(0, 0, 4, 1, 3) // RcvCmp -> Pdg
	cons.QueueReturn(0, 1)
	cons.PopTimeout(0)
	cons.Watchdog(1000)
	cons.EndOfComputation()
	return tr.Collect([]string{"src", "dst"}, []string{"src -> dst"})
}

func TestWriteJSONLPassesDiagValidation(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := diag.ValidateTraceJSONL(&buf)
	if err != nil {
		t.Fatalf("JSONL fails its own schema: %v", err)
	}
	if n != len(tr.Events) {
		t.Errorf("validated %d events, trace has %d", n, len(tr.Events))
	}
}

func TestWriteChromePassesDiagValidation(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := diag.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("Chrome trace fails its own schema: %v", err)
	}
	out := buf.String()
	// Track metadata must name both synthetic processes and the queue track.
	for _, want := range []string{`"process_name"`, `"cores"`, `"queues"`, `"queue 0: src -> dst"`, "am-transition RcvCmp→ExpHdr"} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome trace missing %s", want)
		}
	}
}

func TestAMSequences(t *testing.T) {
	tr := sampleTrace(t)
	seqs := tr.AMSequences()
	if len(seqs) != 1 {
		t.Fatalf("got %d AM sequences, want 1", len(seqs))
	}
	s := seqs[0]
	if s.Queue != 0 || s.Consumer != 1 || s.Name != "src -> dst" {
		t.Errorf("sequence header = %+v", s)
	}
	want := []string{"RcvCmp", "ExpHdr", "RcvCmp", "Pdg"}
	if len(s.States) != len(want) {
		t.Fatalf("states = %v, want %v", s.States, want)
	}
	for i := range want {
		if s.States[i] != want[i] {
			t.Fatalf("states = %v, want %v", s.States, want)
		}
	}
}

func TestSnapshotPassesDiagValidation(t *testing.T) {
	s := obs.NewSnapshot(obs.NewManifest())
	s.Add("quality", map[string]any{"metric": "psnr", "db": 20.2})
	s.Add("faults", map[string]uint64{"data-bitflip": 3})
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := diag.ValidateSnapshot(buf.Bytes()); err != nil {
		t.Fatalf("snapshot fails its own schema: %v", err)
	}
}

func TestConfigHashDeterministic(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1 := obs.ConfigHash(cfg{1, "x"})
	h2 := obs.ConfigHash(cfg{1, "x"})
	h3 := obs.ConfigHash(cfg{2, "x"})
	if h1 == "" || len(h1) != 16 {
		t.Fatalf("hash %q is not 16 hex chars", h1)
	}
	if h1 != h2 {
		t.Errorf("equal configs hash differently: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Errorf("distinct configs collide: %s", h1)
	}
}

func TestManifestProvenance(t *testing.T) {
	m := obs.NewManifest()
	if m.GoVersion == "" {
		t.Error("manifest missing go version")
	}
	if m.GOMAXPROCS < 1 {
		t.Errorf("manifest GOMAXPROCS = %d", m.GOMAXPROCS)
	}
}

// obs duplicates fault.Class's name table (obs sits below fault's users in
// the import graph); pin the copy against the source of truth.
func TestFaultClassNamesMatch(t *testing.T) {
	for c := fault.None; c <= fault.QueuePtr; c++ {
		if got := obs.FaultClassName(uint64(c)); got != c.String() {
			t.Errorf("obs.FaultClassName(%d) = %q, want %q", c, got, c.String())
		}
	}
	if obs.FaultClassName(99) != "invalid" {
		t.Error("out-of-range class should name as invalid")
	}
}

func TestProgressCounters(t *testing.T) {
	var nilP *obs.Progress
	nilP.StartPhase("x", 3)
	nilP.JobDone()
	if d, tot := nilP.Counts(); d != 0 || tot != 0 {
		t.Error("nil progress should count nothing")
	}

	p := new(obs.Progress)
	p.StartPhase("Figure 9", 4)
	p.JobDone()
	p.JobDone()
	if d, tot := p.Counts(); d != 2 || tot != 4 {
		t.Errorf("Counts = (%d, %d), want (2, 4)", d, tot)
	}
	p.JobRetried()
	p.StartPhase("Figure 10", 7)
	if d, tot := p.Counts(); d != 0 || tot != 7 {
		t.Errorf("StartPhase should reset counters, got (%d, %d)", d, tot)
	}
	if r, _, _ := p.CampaignCounts(); r != 1 {
		t.Errorf("StartPhase reset the campaign retry counter to %d", r)
	}
}

// The live counters must be readable as OpenMetrics over the HTTP
// endpoint the -listen flag starts.
func TestProgressServedOverHTTP(t *testing.T) {
	p := new(obs.Progress)
	p.StartPhase("Figure 10", 12)
	p.JobDone()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	obs.ListenAndServe(addr, p, nil)

	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatal(rerr)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
				t.Errorf("Content-Type = %q", ct)
			}
			body = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`commguard_phase_info{phase="Figure 10"} 1` + "\n",
		"commguard_jobs_done 1\n",
		"commguard_jobs_total 12\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("served metrics missing %q\n%s", want, body)
		}
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("served metrics must end with # EOF:\n%s", body)
	}
}

func TestWriteFiles(t *testing.T) {
	tr := sampleTrace(t)
	base := t.TempDir() + "/run"
	paths, err := tr.WriteFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || !strings.HasSuffix(paths[0], "run.trace.json") || !strings.HasSuffix(paths[1], "run.jsonl") {
		t.Fatalf("paths = %v", paths)
	}
}
