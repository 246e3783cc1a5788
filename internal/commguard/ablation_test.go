package commguard

import (
	"testing"

	"commguard/internal/queue"
	"commguard/internal/stream"
)

// The ablation result (unit level, deterministic): the incoming stream
// duplicates a whole frame *including its boundary marker* — the
// frame-granularity replay of §3 (AE_FE, e.g. a queue region re-delivered
// or a producer scope repeated). CommGuard's frame IDs identify the
// replayed frame as stale and discard it; anonymous markers cannot tell it
// from the next frame and deliver stale data in its place — and the shift
// never heals.
func TestMarkerOnlyCheckerFailsOnFrameReplay(t *testing.T) {
	const perFrame = 2
	// Frames 0,1, replay of frame 1, then frames 2,3.
	mkStream := func(ids bool) []queue.Unit {
		h := func(id uint32) queue.Unit {
			if ids {
				return queue.HeaderUnit(id)
			}
			return queue.HeaderUnit(0) // anonymous marker
		}
		return []queue.Unit{
			h(0), queue.DataUnit(100), queue.DataUnit(101),
			h(1), queue.DataUnit(110), queue.DataUnit(111),
			h(1), queue.DataUnit(110), queue.DataUnit(111), // replay (AE_FE)
			h(2), queue.DataUnit(120), queue.DataUnit(121),
			h(3), queue.DataUnit(130), queue.DataUnit(131),
		}
	}
	want := []uint32{100, 101, 110, 111, 120, 121, 130, 131}

	// CommGuard AM with IDs: the replayed frame is discarded, everything
	// else delivered exactly.
	qID := amQueue(t)
	load(qID, mkStream(true)...)
	am := NewAlignmentManager(qID, 0xEE)
	var gotIDs []uint32
	for f := uint32(0); f < 4; f++ {
		am.NewFrameComputation(f)
		for i := 0; i < perFrame; i++ {
			gotIDs = append(gotIDs, am.Pop())
		}
	}
	mismatchIDs := 0
	for i := range want {
		if gotIDs[i] != want[i] {
			mismatchIDs++
		}
	}
	// The AM may sacrifice part of one frame around the replay but must
	// deliver the tail exactly.
	if gotIDs[6] != 130 || gotIDs[7] != 131 {
		t.Errorf("CommGuard tail not realigned: %v", gotIDs)
	}
	if mismatchIDs > perFrame {
		t.Errorf("CommGuard corrupted %d items, want <= %d: %v", mismatchIDs, perFrame, gotIDs)
	}

	// Marker-only checker: the replayed marker is indistinguishable from
	// the next boundary, so every frame from the replay on is stale.
	qM := amQueue(t)
	load(qM, mkStream(false)...)
	mam := &markerAM{q: qM, pad: 0xEE}
	var gotM []uint32
	for f := uint32(0); f < 4; f++ {
		mam.NewFrameComputation(f)
		for i := 0; i < perFrame; i++ {
			gotM = append(gotM, mam.Pop())
		}
	}
	// Frame 2 must be the stale replay of frame 1, and frame 3 must hold
	// frame 2's data: a permanent one-frame shift.
	if !(gotM[4] == 110 && gotM[5] == 111 && gotM[6] == 120 && gotM[7] == 121) {
		t.Errorf("expected permanent shift in marker-only stream, got %v", gotM)
	}
}

// For item-granularity errors, the marker-only checker performs as well as
// the full AM — the gap is exclusively at frame granularity.
func TestMarkerOnlyCheckerHandlesItemSlips(t *testing.T) {
	g := stream.NewGraph()
	const frames = 16
	const perFrame = 8
	data := seq(frames * perFrame)
	sink := stream.NewSink("sink", perFrame)
	bad := stream.NewIdentity("faulty", perFrame)
	if _, err := g.Chain(stream.NewSource("src", perFrame, data), bad, sink); err != nil {
		t.Fatal(err)
	}
	tr := NewMarkerTransport(cgQueue())
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: miscount(tr, 5, +3, 0xDEAD)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := sink.Collected()
	for i := 8 * perFrame; i < len(data); i++ {
		if out[i] != data[i] {
			t.Fatalf("tail item %d corrupted; marker checker should handle extra items", i)
		}
	}
	if tr.Stats().DiscardedItems == 0 {
		t.Error("no discards recorded")
	}
}

// Error-free runs through the marker transport are bit-exact (markers are
// transparent).
func TestMarkerTransportErrorFreeBitExact(t *testing.T) {
	g := stream.NewGraph()
	data := seq(128)
	sink := stream.NewSink("sink", 4)
	if _, err := g.Chain(stream.NewSource("src", 4, data), sink); err != nil {
		t.Fatal(err)
	}
	tr := NewMarkerTransport(cgQueue())
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
	if st := tr.Stats(); st.PaddedItems != 0 || st.DiscardedItems != 0 {
		t.Errorf("error-free marker run realigned: %+v", st)
	}
}
