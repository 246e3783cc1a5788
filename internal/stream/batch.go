package stream

import "math"

// Checksummed kernels. Every firing moves its items through
// flat per-port buffers: the engine fills the input buffers, applies the
// armed fault perturbations to them, runs the filter's WorkBatch, and
// pushes the output buffers (engine.fire); the sequential engine hands a
// kernel a whole run of fault-free firings in one call (engine.fireRun).
//
// On top of that alloc-free steady state, ABFTKernel adds
// algorithm-based fault tolerance in the style of FT-GEMM: the kernel
// fuses an output checksum into its compute loop, the engine re-derives
// the checksum from the communicated buffer after transit corruption has
// been applied, and a mismatch repairs the output by running WorkBatch
// again over the still-intact input buffers. Surfaced as sim.ABFT, this
// is a third point on the paper's quality-vs-overhead curve: cheaper
// than CommGuard (no headers, no alignment FSM) but blind to input
// corruption and to control-flow slips.

// ABFTKernel extends Filter with a checksummed execution mode for the
// ABFT protection scheme. WorkBatchABFT is WorkBatch with a float64
// checksum over the produced items fused into its compute loop; over k
// firings it returns one sum of the whole k-firing output, accumulated
// in buffer order from 0.0 (never a sum of per-firing sums).
// ChecksumBatch re-derives the same checksum from the output buffers
// with the identical value sequence, so a clean buffer reproduces the
// fused sum bit-for-bit and any corrupted item changes it. The engine
// repairs a mismatch by calling WorkBatch again on the same input
// buffers, so an ABFT kernel must be stateless: a firing's output may
// depend on its inputs only, never on state an earlier firing left
// behind (a kernel that carries state across firings, like mp3's
// overlap-add, stays a plain Filter).
type ABFTKernel interface {
	Filter
	WorkBatchABFT(in, out [][]uint32) float64
	ChecksumBatch(out [][]uint32) float64
}

// ChecksumF32 is the standard ABFT checksum for float-carrying tapes:
// the float64 sum of the items interpreted as IEEE-754 float32, in
// buffer order. Kernels that push F32Bits values fuse exactly this sum
// into their output loop; ChecksumBatch implementations call it over
// the communicated buffer.
//
//hotpath:entry
func ChecksumF32(buf []uint32) float64 {
	s := 0.0
	for _, b := range buf {
		s += float64(math.Float32frombits(b))
	}
	return s
}

// ChecksumU32 is the ABFT checksum for integer-carrying tapes (e.g. the
// jpeg RGB stage): the float64 sum of the raw item words. Exact for
// items below 2^53 per the float64 mantissa, i.e. always for 32-bit
// tape items.
//
//hotpath:entry
func ChecksumU32(buf []uint32) float64 {
	s := 0.0
	for _, b := range buf {
		s += float64(b)
	}
	return s
}

// ABFTFuncFilter is a filter built from one checksummed whole-firing
// kernel that serves both ABFTKernel forms. Constructed via
// NewABFTFilter.
type ABFTFuncFilter struct {
	*FuncFilter
	workABFT func(in, out [][]uint32) float64
	checksum func(out [][]uint32) float64
}

// NewABFTFilter builds a filter from a stateless whole-firing kernel
// with the output checksum fused into its compute loop, and checksum,
// which re-derives that sum from the output buffers (see ABFTKernel).
// Both run k >= 1 firings per call. The fused kernel is the filter's
// only form: WorkBatch runs it and drops the sum. cost <= 0 selects the
// default communication-based cost model.
func NewABFTFilter(name string, popRate, pushRate, cost int, work func(in, out [][]uint32) float64, checksum func(out [][]uint32) float64) *ABFTFuncFilter {
	return &ABFTFuncFilter{FuncFilter: NewFuncFilter(name, popRate, pushRate, cost, nil), workABFT: work, checksum: checksum}
}

// WorkBatch implements Filter.
func (f *ABFTFuncFilter) WorkBatch(in, out [][]uint32) { f.workABFT(in, out) }

// WorkBatchABFT implements ABFTKernel.
func (f *ABFTFuncFilter) WorkBatchABFT(in, out [][]uint32) float64 { return f.workABFT(in, out) }

// ChecksumBatch implements ABFTKernel.
func (f *ABFTFuncFilter) ChecksumBatch(out [][]uint32) float64 { return f.checksum(out) }

var _ ABFTKernel = (*ABFTFuncFilter)(nil)
