package ppu

import "testing"

type recorder struct {
	frames []uint32
	ended  int
}

func (r *recorder) NewFrameComputation(fc uint32) { r.frames = append(r.frames, fc) }
func (r *recorder) EndOfComputation()             { r.ended++ }

func TestNewCoreValidation(t *testing.T) {
	if _, err := NewCore(0, 0); err == nil {
		t.Error("frame scale 0 must be rejected")
	}
	if _, err := NewCore(0, 1); err != nil {
		t.Errorf("frame scale 1 rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewCore should panic on bad scale")
		}
	}()
	MustNewCore(0, -1)
}

func TestActiveFCAdvancesPerFrame(t *testing.T) {
	c := MustNewCore(3, 1)
	r := &recorder{}
	c.Subscribe(r)
	for i := 0; i < 4; i++ {
		if !c.BeginFrameComputation() {
			t.Fatalf("invocation %d did not start a frame at scale 1", i)
		}
	}
	want := []uint32{0, 1, 2, 3}
	if len(r.frames) != len(want) {
		t.Fatalf("got %d frame events, want %d", len(r.frames), len(want))
	}
	for i := range want {
		if r.frames[i] != want[i] {
			t.Errorf("frame event %d = %d, want %d", i, r.frames[i], want[i])
		}
	}
	if c.ActiveFC() != 3 {
		t.Errorf("ActiveFC = %d, want 3", c.ActiveFC())
	}
}

// At scale N, one active-fc increment covers N frame computations (the
// saturating counter of §5.4).
func TestFrameScaleDownsampling(t *testing.T) {
	c := MustNewCore(0, 4)
	r := &recorder{}
	c.Subscribe(r)
	started := 0
	for i := 0; i < 12; i++ {
		if c.BeginFrameComputation() {
			started++
		}
	}
	if started != 3 {
		t.Errorf("frames started = %d, want 3 (12 invocations / scale 4)", started)
	}
	want := []uint32{0, 1, 2}
	if len(r.frames) != 3 {
		t.Fatalf("frame events = %v", r.frames)
	}
	for i := range want {
		if r.frames[i] != want[i] {
			t.Errorf("frame event %d = %d, want %d", i, r.frames[i], want[i])
		}
	}
	st := c.Stats()
	if st.FrameComputations != 12 || st.Frames != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEndOfComputationFiresOnceAtOutermostExit(t *testing.T) {
	c := MustNewCore(0, 1)
	r := &recorder{}
	c.Subscribe(r)
	c.BeginScope()
	c.BeginScope()
	if err := c.EndScope(); err != nil {
		t.Fatal(err)
	}
	if r.ended != 0 {
		t.Error("EndOfComputation fired before outermost exit")
	}
	if c.Done() {
		t.Error("Done before outermost exit")
	}
	if err := c.EndScope(); err != nil {
		t.Fatal(err)
	}
	if r.ended != 1 || !c.Done() {
		t.Errorf("ended = %d, done = %v", r.ended, c.Done())
	}
	// Re-entering and exiting must not re-fire.
	c.BeginScope()
	if err := c.EndScope(); err != nil {
		t.Fatal(err)
	}
	if r.ended != 1 {
		t.Errorf("EndOfComputation fired %d times, want once", r.ended)
	}
}

func TestEndScopeUnderflow(t *testing.T) {
	c := MustNewCore(0, 1)
	if err := c.EndScope(); err == nil {
		t.Error("EndScope on empty stack must error")
	}
}

func TestLoopGuardBoundsIterations(t *testing.T) {
	c := MustNewCore(0, 1)
	g := c.LoopGuard(5)
	n := 0
	for g.Next() {
		n++
		if n > 100 {
			t.Fatal("guard failed to stop the loop")
		}
	}
	if n != 5 {
		t.Errorf("iterations = %d, want 5", n)
	}
	// The loop exit itself was one refused Next(); each guard counts at
	// most one violation no matter how often it keeps refusing.
	if got := c.Stats().LoopBoundViolations; got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
	g.Next()
	g.Next()
	if got := c.Stats().LoopBoundViolations; got != 1 {
		t.Errorf("violations after repeated refusals = %d, want 1", got)
	}
	g2 := c.LoopGuard(0)
	if g2.Next() {
		t.Error("zero-bound guard permitted an iteration")
	}
	if c.Stats().LoopBoundViolations != 2 {
		t.Error("refused iteration not counted as violation")
	}
	if g2.Remaining() != 0 {
		t.Errorf("Remaining = %d", g2.Remaining())
	}
}

// TestLoopGuardNextN pins that a group of n permits consumes what n
// Next calls would, and that a group the guard cannot cover is refused
// whole, counted once like Next's refusal.
func TestLoopGuardNextN(t *testing.T) {
	c := MustNewCore(0, 1)
	g := c.LoopGuard(10)
	if !g.NextN(4) || !g.Next() || !g.NextN(5) {
		t.Fatal("guard refused permits within its bound")
	}
	if g.Remaining() != 0 || c.Stats().LoopBoundViolations != 0 {
		t.Fatalf("Remaining = %d, violations = %d after 10 permits", g.Remaining(), c.Stats().LoopBoundViolations)
	}
	g = c.LoopGuard(3)
	if g.NextN(4) {
		t.Error("NextN(4) granted on a guard with 3 permits")
	}
	if g.Remaining() != 3 || c.Stats().LoopBoundViolations != 1 {
		t.Errorf("after refused NextN(4): Remaining = %d, violations = %d; want 3, 1", g.Remaining(), c.Stats().LoopBoundViolations)
	}
	if !g.NextN(3) || g.NextN(1) || c.Stats().LoopBoundViolations != 1 {
		t.Error("a guard counts at most one violation")
	}
}

func TestCommitAccountsInstructions(t *testing.T) {
	c := MustNewCore(9, 1)
	c.Commit(100)
	c.Commit(-5) // ignored
	c.Commit(23)
	if got := c.Stats().Instructions; got != 123 {
		t.Errorf("Instructions = %d, want 123", got)
	}
	if c.ID() != 9 {
		t.Errorf("ID = %d", c.ID())
	}
}

func TestScopeDepthTracking(t *testing.T) {
	c := MustNewCore(0, 1)
	c.BeginScope()
	c.BeginScope()
	c.BeginScope()
	c.EndScope()
	if c.Stats().ScopeDepthMax != 3 {
		t.Errorf("ScopeDepthMax = %d, want 3", c.Stats().ScopeDepthMax)
	}
}
