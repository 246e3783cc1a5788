// Package stream implements the subset of the StreamIt execution model that
// the paper's benchmarks rely on (§2.2): graphs of filters with static
// per-firing pop/push rates, composed into pipelines and split-joins,
// scheduled by balance equations into a steady state, and executed with one
// thread per filter and a queue per edge.
//
// The engine is deliberately transport-agnostic: edges are wired through a
// Transport, so the same graph runs over plain queues (the baseline
// configurations of Fig. 3a–c) or through CommGuard's Header Inserter /
// Alignment Manager / Queue Manager modules (Fig. 3d) without touching the
// application code.
package stream

import (
	"math"
)

// Filter is one StreamIt filter: a unit of computation that, per firing,
// pops PopRates()[i] items from input port i and pushes PushRates()[o]
// items to output port o. Items are 32-bit words (StreamIt's tape items;
// floats travel as IEEE-754 bits).
//
// Filters must communicate only through the Ctx and keep all state
// internal; the engine runs each filter on its own goroutine.
type Filter interface {
	// Name identifies the filter in diagnostics and statistics.
	Name() string
	// PopRates returns the per-input-port items consumed per firing.
	// Length defines the number of input ports (nil/empty for sources).
	PopRates() []int
	// PushRates returns the per-output-port items produced per firing.
	// Length defines the number of output ports (nil/empty for sinks).
	PushRates() []int
	// Work executes one firing, popping and pushing exactly the declared
	// rates through ctx.
	Work(ctx *Ctx)
}

// Coster is an optional interface filters implement to declare their
// modeled per-firing instruction cost (compute instructions, excluding
// communication). Filters that do not implement it get DefaultFiringCost.
type Coster interface {
	FiringCost() int
}

// CommInstructionRatio reflects the paper's measurement that "a
// communication event occurs as often as every 7 compute instructions on
// average in our benchmarks" (§2.3): the default cost model charges this
// many compute instructions per communicated item.
const CommInstructionRatio = 7

// DefaultFiringCost estimates the modeled instruction cost of one firing
// of f from its communication rates.
func DefaultFiringCost(f Filter) int {
	if c, ok := f.(Coster); ok {
		return c.FiringCost()
	}
	items := 0
	for _, r := range f.PopRates() {
		items += r
	}
	for _, r := range f.PushRates() {
		items += r
	}
	return CommInstructionRatio*items + 10
}

// Ctx is the communication context handed to Filter.Work. Port indexes
// follow the order of PopRates/PushRates. Its calls read and write the
// firing's flat per-port buffers, which the engine fills before Work and
// pushes after it.
type Ctx struct {
	in  []*inTransit
	out []*outTransit
}

// Pop consumes the next item from input port i.
func (c *Ctx) Pop(i int) uint32 {
	s := c.in[i]
	if s.pos < s.rate {
		v := s.buf[s.pos]
		s.pos++
		return v
	}
	return s.popPast()
}

// Peek returns the item off positions ahead on input port i without
// consuming it (StreamIt's peek construct; off 0 is the next item Pop
// would return). Peeking blocks like Pop until the item is available; at
// end of stream unavailable items read as zero. Within the firing's rate
// a peek sees exactly what Pop will deliver, so a data flip or addressing
// slip armed on that item shows in the peek too.
func (c *Ctx) Peek(i, off int) uint32 { return c.in[i].peek(off) }

// PeekF32 peeks an IEEE-754 float item.
func (c *Ctx) PeekF32(i, off int) float32 { return math.Float32frombits(c.Peek(i, off)) }

// Push produces v on output port o.
func (c *Ctx) Push(o int, v uint32) { c.out[o].buf = append(c.out[o].buf, v) }

// PopF32 pops an IEEE-754 float item.
func (c *Ctx) PopF32(i int) float32 { return math.Float32frombits(c.Pop(i)) }

// PushF32 pushes an IEEE-754 float item.
func (c *Ctx) PushF32(o int, v float32) { c.Push(o, math.Float32bits(v)) }

// PopI32 pops a signed integer item.
func (c *Ctx) PopI32(i int) int32 { return int32(c.Pop(i)) }

// F32Bits and BitsF32 are conversion helpers for filters that buffer items.
func F32Bits(v float32) uint32 { return math.Float32bits(v) }

// BitsF32 converts stored item bits back to float32.
func BitsF32(b uint32) float32 { return math.Float32frombits(b) }
