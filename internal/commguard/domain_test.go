package commguard

import (
	"testing"

	"commguard/internal/stream"
)

func TestFrameDomainAdvance(t *testing.T) {
	d := newFrameDomain(3)
	type step struct {
		fc      uint32
		started bool
	}
	want := []step{{0, true}, {0, false}, {0, false}, {1, true}, {1, false}, {1, false}, {2, true}}
	for i, w := range want {
		fc, started := d.advance()
		if fc != w.fc || started != w.started {
			t.Fatalf("event %d: got (%d,%v), want (%d,%v)", i, fc, started, w.fc, w.started)
		}
	}
}

func TestFrameDomainScaleClamped(t *testing.T) {
	d := newFrameDomain(0)
	if _, started := d.advance(); !started {
		t.Error("scale<1 must clamp to 1 (every event starts a frame)")
	}
	if _, started := d.advance(); !started {
		t.Error("second event must also start a frame at scale 1")
	}
}

// The domain keeps no event counter, so the old uint32 overflow (which made
// the domain frame counter regress after 2^32 events) cannot recur: across
// the 2^32-event boundary the domain frame ID keeps advancing
// monotonically.
func TestFrameDomainRawCounterPast32Bits(t *testing.T) {
	const scale = 4
	// Place the domain just under 2^32 events, aligned to a domain frame
	// boundary so the next aligned event starts a new frame.
	start := (uint64(1)<<32)/scale*scale - scale // last aligned index < 2^32
	d := domainAt(scale, start)
	fc0, started := d.advance()
	if !started {
		t.Fatalf("event at aligned index %d did not start a frame", start)
	}
	if want := uint32(start / scale); fc0 != want {
		t.Fatalf("fc = %d, want %d", fc0, want)
	}
	// Consume the remaining events of this frame, crossing 2^32.
	for i := 0; i < scale-1; i++ {
		if fc, s := d.advance(); s || fc != fc0 {
			t.Fatalf("mid-frame event %d: fc=%d started=%v", i, fc, s)
		}
	}
	fc1, started := d.advance()
	if !started {
		t.Fatal("first aligned event past 2^32 did not start a frame")
	}
	if fc1 != fc0+1 {
		t.Fatalf("domain frame regressed across 2^32 events: %d -> %d", fc0, fc1)
	}
}

// The wire frame ID is 32 bits: after 2^32 domain frames it wraps mod 2^32.
// Both endpoints run this same function on the same event count, so they
// wrap in lockstep; the AM orders IDs with serial arithmetic.
func TestFrameDomainWireIDWrapsInLockstep(t *testing.T) {
	start := (uint64(1) << 32) - 2 // two frames before the wire wrap
	prod, cons := domainAt(1, start), domainAt(1, start)
	for i := 0; i < 4; i++ {
		pfc, ps := prod.advance()
		cfc, cs := cons.advance()
		if pfc != cfc || ps != cs {
			t.Fatalf("endpoints diverged at step %d: (%d,%v) vs (%d,%v)", i, pfc, ps, cfc, cs)
		}
	}
	if fc, _ := prod.advance(); fc != 2 {
		t.Fatalf("post-wrap fc = %d, want 2", fc)
	}
}

// Serial-number comparison orders frame IDs correctly across the wire wrap.
func TestSerialBeforeAcrossWrap(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xFFFFFFFE, 1, true},  // pre-wrap id is before post-wrap id
		{1, 0xFFFFFFFE, false}, // and not vice versa
		{0xFFFFFFFF, 0, true},
	}
	for _, c := range cases {
		if got := serialBefore(c.a, c.b); got != c.want {
			t.Errorf("serialBefore(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Per-edge frame domains (§5.4): an error-free run with heterogeneous
// scales across edges must stay bit-exact, and header counts per edge
// must reflect each edge's own scale.
func TestPerEdgeFrameDomainsErrorFree(t *testing.T) {
	g := stream.NewGraph()
	data := seq(480)
	sink := stream.NewSink("sink", 4)
	if _, err := g.Chain(
		stream.NewSource("src", 4, data),
		stream.NewIdentity("a", 4),
		stream.NewIdentity("b", 4),
		sink,
	); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(cgQueue())
	// Edge 0: per-frame headers; edge 1: one header per 4 frames; edge 2:
	// one per 8 frames.
	scales := map[int]int{0: 1, 1: 4, 2: 8}
	tr.ScaleFor = func(e *stream.Edge) int { return scales[e.ID] }
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], data[i])
		}
	}
	// 120 steady iterations: edge 0 carries 120 headers, edge 1 carries
	// 30, edge 2 carries 15.
	his := tr.his
	if len(his) != 3 {
		t.Fatalf("expected 3 HIs, got %d", len(his))
	}
	wantHeaders := []uint64{120, 30, 15}
	for i, hi := range his {
		if got := hi.Stats().HeadersInserted; got != wantHeaders[i] {
			t.Errorf("edge %d: %d headers, want %d", i, got, wantHeaders[i])
		}
	}
	if tr.Stats().AM.DataLossItems() != 0 {
		t.Error("error-free domain run lost data")
	}
}

// Realignment must still work inside a scaled domain: a mid-stream
// misalignment is repaired at the next domain frame boundary.
func TestDomainRealignment(t *testing.T) {
	g := stream.NewGraph()
	const frames = 24
	const perFrame = 8
	data := seq(frames * perFrame)
	sink := stream.NewSink("sink", perFrame)
	bad := stream.NewIdentity("faulty", perFrame)
	if _, err := g.Chain(stream.NewSource("src", perFrame, data), bad, sink); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(cgQueue())
	tr.ScaleFor = func(e *stream.Edge) int { return 4 }
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: miscount(tr, 6, -3, 0xBEEF)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	// With scale-4 domains, the damage may span up to two 4-frame domain
	// frames, but the tail must be exact (ephemeral effects).
	for i := 16 * perFrame; i < len(data); i++ {
		if out[i] != data[i] {
			t.Fatalf("tail item %d corrupted (domain realignment failed)", i)
		}
	}
	if tr.Stats().AM.Realignments == 0 {
		t.Error("no realignment recorded")
	}
}
