// Package stream implements the subset of the StreamIt execution model that
// the paper's benchmarks rely on (§2.2): graphs of filters with static
// per-firing pop/push rates, composed into pipelines and split-joins,
// scheduled by balance equations into a steady state, and executed with one
// thread per filter and a queue per edge.
//
// A filter computes in one form only, a whole-firing kernel (Filter's
// WorkBatch): the engine takes each firing's input items into flat
// per-port buffers, runs the kernel over them, and pushes its output
// buffers. Rates are exact, and there is no peek: a firing reads exactly
// its pop rate and writes exactly its push rate, and a filter that needs
// earlier items keeps them in its own state. This departs from StreamIt,
// whose filters may peek past their pop rate; none of the paper's
// benchmarks peeks.
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
// Filters communicate only through the buffers WorkBatch is handed and
// keep all state internal; the engine runs each filter on its own
// goroutine.
type Filter interface {
	// Name identifies the filter in diagnostics and statistics.
	Name() string
	// PopRates returns the per-input-port items consumed per firing.
	// Length defines the number of input ports (nil/empty for sources).
	PopRates() []int
	// PushRates returns the per-output-port items produced per firing.
	// Length defines the number of output ports (nil/empty for sinks).
	PushRates() []int
	// WorkBatch executes k >= 1 consecutive firings over flat buffers.
	// in[i] holds exactly k·PopRates()[i] items, firing j's at
	// [j·rate, (j+1)·rate), and out[o] must be filled with exactly
	// k·PushRates()[o] items laid out the same way. The engine passes
	// k = 1 on the per-firing path and a run's length on the sequential
	// engine's grouped path, so one call over k firings must be
	// observably identical to k calls over one firing each, in order,
	// kernel state included: the same values in the same order, bit for
	// bit (floating-point operation order too). WorkBatch must not write
	// to in.
	WorkBatch(in, out [][]uint32)
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

// F32Bits converts a float32 to the item bits that carry it on a tape.
func F32Bits(v float32) uint32 { return math.Float32bits(v) }

// BitsF32 converts stored item bits back to float32.
func BitsF32(b uint32) float32 { return math.Float32frombits(b) }
