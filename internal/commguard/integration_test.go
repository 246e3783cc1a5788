package commguard

import (
	"testing"
	"time"

	"commguard/internal/fault"
	"commguard/internal/ppu"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

func cgQueue() queue.Config {
	return queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 100 * time.Millisecond}
}

func seq(n int) []uint32 {
	d := make([]uint32, n)
	for i := range d {
		d[i] = uint32(i + 1)
	}
	return d
}

// Error-free execution through CommGuard must be bit-exact: headers are
// consumed transparently by the AM.
func TestErrorFreeRunIsBitExact(t *testing.T) {
	g := stream.NewGraph()
	data := seq(240)
	sink := stream.NewSink("sink", 3)
	if _, err := g.Chain(
		stream.NewSource("src", 4, data),
		stream.NewIdentity("mid", 6),
		sink,
	); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(cgQueue())
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	if len(out) != len(data) {
		t.Fatalf("collected %d items, want %d", len(out), len(data))
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], data[i])
		}
	}
	st := tr.Stats()
	if st.AM.DataLossItems() != 0 {
		t.Errorf("error-free run lost data: %+v", st.AM)
	}
	if st.HI.HeadersInserted == 0 || st.HI.EOCInserted != 2 {
		t.Errorf("HI stats = %+v (want headers >0, one EOC per edge)", st.HI)
	}
	if st.AM.Realignments != 0 {
		t.Errorf("error-free run realigned %d times", st.AM.Realignments)
	}
}

// Header Inserter unit behaviour: one header per frame event plus EOC.
func TestHeaderInserterSequence(t *testing.T) {
	q := queue.MustNew(0, cgQueue())
	hi := NewHeaderInserter(q)
	core := ppu.MustNewCore(0, 1)
	core.Subscribe(hi)
	core.BeginScope()
	for i := 0; i < 3; i++ {
		core.BeginFrameComputation()
	}
	if err := core.EndScope(); err != nil {
		t.Fatal(err)
	}
	q.Close()
	want := []uint32{0, 1, 2, queue.EOCHeaderID}
	for _, id := range want {
		u, ok := q.Pop()
		if !ok || !u.IsHeader() {
			t.Fatalf("expected header %d, got %v,%v", id, u, ok)
		}
		got, _ := u.HeaderID()
		if got != id {
			t.Fatalf("header = %d, want %d", got, id)
		}
	}
	st := hi.Stats()
	if st.HeadersInserted != 3 || st.EOCInserted != 1 {
		t.Errorf("HI stats = %+v", st)
	}
	if hi.Ops().Total() == 0 {
		t.Error("HI recorded no suboperations")
	}
}

// miscount wraps a transport so that the producer named "faulty"
// misbehaves on demand: its badAt-th push (0-based; one push per firing
// on the concurrent engine) carries delta extra badValue items, or loses
// its last -delta items, modeling a control-flow error inside the
// producer. A kernel always fills exactly its rate, so a miscount can only
// arise at the port, where the engine's own fault model arms it too.
func miscount(tr stream.Transport, badAt, delta int, badValue uint32) stream.Transport {
	return &miscountTransport{Transport: tr, badAt: badAt, delta: delta, badValue: badValue}
}

type miscountTransport struct {
	stream.Transport
	badAt, delta int
	badValue     uint32
}

func (m *miscountTransport) Wire(e *stream.Edge, prod, cons *ppu.Core) (stream.OutPort, stream.InPort, *queue.Queue, error) {
	out, in, q, err := m.Transport.Wire(e, prod, cons)
	if e.Src.F.Name() == "faulty" {
		out = &miscountOut{OutPort: out, m: m}
	}
	return out, in, q, err
}

type miscountOut struct {
	stream.OutPort
	m      *miscountTransport
	pushes int
}

func (o *miscountOut) PushN(vs []uint32) {
	if o.pushes == o.m.badAt {
		if o.m.delta < 0 {
			vs = vs[:len(vs)+o.m.delta]
		} else {
			vs = vs[:len(vs):len(vs)] // append to a copy, not the engine's buffer
			for range o.m.delta {
				vs = append(vs, o.m.badValue) // extra garbage items
			}
		}
	}
	o.pushes++
	o.OutPort.PushN(vs)
}

// A producer that pushes extra items mid-stream must corrupt at most the
// frames around the error; later frames realign exactly (ephemeral effect,
// requirement 2 of §2.1.1).
func TestRealignmentAfterExtraItems(t *testing.T) {
	testRealignment(t, +3)
}

// Same for lost items.
func TestRealignmentAfterLostItems(t *testing.T) {
	testRealignment(t, -3)
}

func testRealignment(t *testing.T, delta int) {
	t.Helper()
	g := stream.NewGraph()
	const frames = 12
	const perFrame = 8
	data := seq(frames * perFrame)
	sink := stream.NewSink("sink", perFrame)
	bad := stream.NewIdentity("faulty", perFrame)
	if _, err := g.Chain(stream.NewSource("src", perFrame, data), bad, sink); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(cgQueue())
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: miscount(tr, 4, delta, 0xDEAD)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	if len(out) != len(data) {
		t.Fatalf("collected %d, want %d", len(out), len(data))
	}
	// Corruption of delivered values is bounded to at most two frames'
	// worth of items. (Extra garbage items are discarded without touching
	// real data at all; lost items pad only the frame they belonged to.)
	corrupted := 0
	for i := range data {
		if out[i] != data[i] {
			corrupted++
		}
	}
	if corrupted > 2*perFrame {
		t.Errorf("corrupted %d items, want <= %d (bounded by frame realignment)", corrupted, 2*perFrame)
	}
	if delta < 0 && corrupted == 0 {
		t.Error("lost items should pad (corrupt) part of the faulty frame")
	}
	// The tail must be exact.
	for i := 7 * perFrame; i < len(data); i++ {
		if out[i] != data[i] {
			t.Fatalf("tail item %d corrupted: got %d want %d (misalignment not ephemeral)", i, out[i], data[i])
		}
	}
	st := tr.Stats()
	if st.AM.Realignments == 0 {
		t.Error("no realignment recorded despite misalignment")
	}
	if st.AM.DataLossItems() == 0 {
		t.Error("no data loss recorded despite pad/discard")
	}
}

// Full-system test: identity pipeline under the complete fault model with
// CommGuard. The run must terminate and the output must keep the right
// length; with MTBE well above the per-frame cost most items survive.
func TestGuardedPipelineUnderInjectedErrors(t *testing.T) {
	g := stream.NewGraph()
	data := seq(2000)
	sink := stream.NewSink("sink", 10)
	if _, err := g.Chain(
		stream.NewSource("src", 10, data),
		stream.NewIdentity("a", 5),
		stream.NewIdentity("b", 10),
		sink,
	); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(cgQueue())
	model := fault.DefaultModel(true)
	eng, err := stream.NewEngine(g, stream.EngineConfig{
		Transport: tr,
		NewInjector: func(core int) *fault.Injector {
			return fault.NewInjector(2000, fault.CoreSeed(11, core), model)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	injected := uint64(0)
	for _, c := range stats.Cores {
		injected += c.Errors.Total()
	}
	if injected == 0 {
		t.Fatal("no errors injected")
	}
	out := sink.Collected()
	// Sink firings can slip, but bounded.
	if len(out) < len(data)*8/10 {
		t.Errorf("collected only %d of %d items", len(out), len(data))
	}
	matching := 0
	for i := 0; i < len(out) && i < len(data); i++ {
		if out[i] == data[i] {
			matching++
		}
	}
	if matching < len(data)/2 {
		t.Errorf("only %d/%d items survived; CommGuard should keep most data intact", matching, len(data))
	}
}

// With frame scaling, headers are inserted once per scaled frame and
// error-free delivery stays exact.
func TestFrameScaleErrorFree(t *testing.T) {
	for _, scale := range []int{1, 2, 4, 8} {
		g := stream.NewGraph()
		data := seq(320)
		sink := stream.NewSink("sink", 4)
		if _, err := g.Chain(stream.NewSource("src", 4, data), sink); err != nil {
			t.Fatal(err)
		}
		tr := NewTransport(cgQueue())
		eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: tr, FrameScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out := sink.Collected()
		for i := range data {
			if out[i] != data[i] {
				t.Fatalf("scale %d: out[%d] = %d, want %d", scale, i, out[i], data[i])
			}
		}
		st := tr.Stats()
		wantHeaders := uint64(80 / scale)
		if st.HI.HeadersInserted != wantHeaders {
			t.Errorf("scale %d: %d headers, want %d", scale, st.HI.HeadersInserted, wantHeaders)
		}
	}
}

func TestTransportStatsAggregation(t *testing.T) {
	tr := NewTransport(cgQueue())
	if got := tr.Stats(); got.Ops.Total() != 0 {
		t.Error("fresh transport has nonzero ops")
	}
	if ams := tr.AlignmentManagers(); len(ams) != 0 {
		t.Error("fresh transport has AMs")
	}
}
