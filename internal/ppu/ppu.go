// Package ppu models the partially protected uniprocessor cores CommGuard
// builds on (paper §2.1, §4.4; the execution-management architecture of
// Yetim et al., DATE 2013 [32]).
//
// A PPU core executes mostly on error-prone hardware but a small reliable
// protection module guarantees two properties for coarse-grained
// control-flow regions ("scopes", demarcated at function calls and loop
// nests): (i) the thread sequences correctly from one scope to the next,
// and (ii) it does not loop indefinitely within a scope. Control-flow
// errors may still perturb *how* a scope body executes — iteration counts,
// data, addresses — but not the coarse-grained progress of the program.
// Since scopes are always well nested here, the module tracks them by
// depth alone.
//
// The protection module also maintains the active frame-computation counter
// (active-fc) that CommGuard's Header Inserter and Alignment Manager use,
// optionally down-sampled through a saturating counter to enlarge frames
// (§4.4, §5.4), and signals CommGuard when the thread's outermost global
// scope exits.
package ppu

import (
	"fmt"

	"commguard/internal/obs"
)

// FrameListener receives frame-progress events from the protection module.
// CommGuard's per-queue Header Inserters and Alignment Managers register as
// listeners.
type FrameListener interface {
	// NewFrameComputation fires when the core rolls over to frame fc.
	NewFrameComputation(fc uint32)
	// EndOfComputation fires when the outermost global scope exits.
	EndOfComputation()
}

// Stats records the protection module's activity.
type Stats struct {
	// Instructions committed by the core (compute + communication).
	Instructions uint64
	// FrameComputations is the number of frame-computation invocations
	// observed (before down-scaling).
	FrameComputations uint64
	// Frames is the number of active-fc increments (after down-scaling).
	Frames uint64
	// LoopBoundViolations counts loop iterations the watchdog refused
	// because a scope exceeded its iteration bound (guarantee ii).
	LoopBoundViolations uint64
	// ScopeDepthMax is the deepest scope nesting observed.
	ScopeDepthMax int
}

// Core is the reliable protection module state of one PPU core.
type Core struct {
	id         int
	frameScale int // active-fc advances once per frameScale invocations
	scaleCount int

	activeFC uint32
	depth    int // scope nesting depth
	done     bool

	listeners []FrameListener
	stats     Stats

	// trace is this core's event ring (nil = tracing off). Frame starts,
	// EOC, and watchdog fires are recorded here; the guard modules attached
	// to the core share the same ring via TraceRing.
	trace *obs.Ring
}

// NewCore creates the protection module for core id. frameScale >= 1
// down-samples frame-computation invocations through a saturating counter
// so that one active-fc increment covers frameScale invocations (frame
// sizes ×2, ×4, ×8 in Figs. 10–13 use frameScale 2, 4, 8).
func NewCore(id, frameScale int) (*Core, error) {
	if frameScale < 1 {
		return nil, fmt.Errorf("ppu: frame scale must be >= 1, got %d", frameScale)
	}
	return &Core{id: id, frameScale: frameScale, scaleCount: frameScale}, nil
}

// MustNewCore is NewCore for known-good arguments.
func MustNewCore(id, frameScale int) *Core {
	c, err := NewCore(id, frameScale)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core identifier.
func (c *Core) ID() int { return c.id }

// SetTraceRing attaches the core's event ring (nil disables tracing).
func (c *Core) SetTraceRing(r *obs.Ring) { c.trace = r }

// TraceRing returns the core's event ring (nil when tracing is off). The
// guard modules of queues attached to this core record into the same ring,
// keeping each ring single-writer.
func (c *Core) TraceRing() *obs.Ring { return c.trace }

// Subscribe registers a frame listener. Listeners added after computation
// started still see subsequent events.
func (c *Core) Subscribe(l FrameListener) {
	c.listeners = append(c.listeners, l)
}

// Commit accounts n committed instructions.
func (c *Core) Commit(n int) {
	if n > 0 {
		c.stats.Instructions += uint64(n)
	}
}

// BeginScope enters a control-flow region. The protection module
// guarantees scope sequencing, so entering/exiting is always well nested
// here; the interesting error effects happen inside scope bodies. Only
// the nesting depth is kept.
func (c *Core) BeginScope() {
	c.depth++
	if c.depth > c.stats.ScopeDepthMax {
		c.stats.ScopeDepthMax = c.depth
	}
}

// EndScope exits the innermost scope. Exiting the outermost scope signals
// end of computation to the listeners (once).
func (c *Core) EndScope() error {
	if c.depth <= 1 {
		return c.endOutermost()
	}
	c.depth--
	return nil
}

// endOutermost is EndScope at depth 1, or at depth 0, which is an error.
func (c *Core) endOutermost() error {
	if c.depth == 0 {
		return fmt.Errorf("ppu core %d: EndScope with empty scope stack", c.id)
	}
	c.depth = 0
	if !c.done {
		c.done = true
		c.trace.EndOfComputation()
		for _, l := range c.listeners {
			l.EndOfComputation()
		}
	}
	return nil
}

// Done reports whether the outermost scope has exited.
func (c *Core) Done() bool { return c.done }

// ActiveFC returns the current frame-computation counter. It lives in the
// reliable protection module, so it is never error-prone.
func (c *Core) ActiveFC() uint32 { return c.activeFC }

// BeginFrameComputation records one frame-computation invocation. Every
// frameScale-th invocation advances active-fc and notifies the listeners;
// it returns true when a new frame actually started. The very first
// invocation always starts frame 0.
func (c *Core) BeginFrameComputation() bool {
	c.stats.FrameComputations++
	c.scaleCount++
	if c.scaleCount < c.frameScale {
		return false
	}
	c.startFrame()
	return true
}

// startFrame advances active-fc and notifies the listeners.
func (c *Core) startFrame() {
	c.scaleCount = 0
	if c.stats.Frames > 0 {
		c.activeFC++
	}
	c.stats.Frames++
	c.trace.FrameStart(c.activeFC)
	for _, l := range c.listeners {
		l.NewFrameComputation(c.activeFC)
	}
}

// LoopGuard bounds the iterations of one scope body, implementing the
// protection module's no-indefinite-looping guarantee. Typical use:
//
//	g := core.LoopGuard(bound)
//	for g.Next() { ... }
//
// Next returns false once bound iterations have run, even if error-prone
// control flow would have continued.
type LoopGuard struct {
	core  *Core
	left  int
	bound int
	fired bool
}

// LoopGuard creates a watchdog allowing at most bound iterations.
func (c *Core) LoopGuard(bound int) *LoopGuard {
	return &LoopGuard{core: c, left: bound, bound: bound}
}

// Next consumes one iteration permit. The first refusal is counted as a
// loop-bound violation (the watchdog actually had to intervene).
func (g *LoopGuard) Next() bool {
	if g.left <= 0 {
		return g.refuse()
	}
	g.left--
	return true
}

// NextN consumes n permits at once, for n iterations that run as one
// group. It refuses as Next does when fewer than n are left, consuming
// none.
func (g *LoopGuard) NextN(n int) bool {
	if g.left < n {
		return g.refuse()
	}
	g.left -= n
	return true
}

// refuse counts the guard's first refusal as a loop-bound violation.
func (g *LoopGuard) refuse() bool {
	if !g.fired {
		g.core.stats.LoopBoundViolations++
		g.fired = true
		g.core.trace.Watchdog(g.bound)
	}
	return false
}

// Remaining reports how many iterations the guard still permits.
func (g *LoopGuard) Remaining() int { return g.left }

// Stats returns a snapshot of the protection module's counters.
func (c *Core) Stats() Stats { return c.stats }
