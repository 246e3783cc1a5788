// Package fault models hardware error injection for the functional
// simulation (paper §6). The paper's Simics-based injector flips random
// bits in the architectural register file of each core at a configurable
// mean time between errors (MTBE, in instructions), independently per core
// with a per-core random number generator.
//
// We execute filter work functions natively in Go, so register-level flips
// are not directly reproducible; instead each injected error is mapped to
// the architectural manifestation a register bitflip produces at the ISA
// interface (DESIGN.md §5, substitution 1 and §7): a data-value flip, a
// loop-trip-count perturbation, a frame-level control slip, an addressing
// slip, or a queue-pointer corruption. This is exactly the error taxonomy
// of paper §3 (DTE, AE(I|F)(E|L), QME), driven by the same MTBE parameter.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Class enumerates architectural error manifestations.
type Class int

const (
	// None marks the absence of an error.
	None Class = iota
	// DataBitflip flips one random bit in one data item produced or held
	// by the firing (a data transmission/computation error, DTE).
	DataBitflip
	// ControlTrip perturbs a communication loop's trip count: the firing
	// pushes or pops k items too many or too few (item-granularity
	// alignment error, AE_I(E|L)).
	ControlTrip
	// ControlFrame skips or repeats one whole firing inside the scope
	// (frame-granularity alignment error, AE_F(E|L)). The PPU guarantees
	// scope sequencing, so the slip is bounded to single firings.
	ControlFrame
	// AddrSlip makes one access read a neighbouring in-bounds element
	// (wrong data, correct count) — the PPU bounds addressing errors to
	// in-bounds accesses.
	AddrSlip
	// QueuePtr corrupts one bit of a communication queue's management
	// state (QME). Only possible with the unprotected software queue;
	// with a reliable QM this class is re-drawn as DataBitflip (§4.3).
	QueuePtr
	numClasses
)

func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case DataBitflip:
		return "data-bitflip"
	case ControlTrip:
		return "control-trip"
	case ControlFrame:
		return "control-frame"
	case AddrSlip:
		return "addr-slip"
	case QueuePtr:
		return "queue-ptr"
	}
	return "invalid"
}

// ABFTChecksumOpsPerItem is the Table-3-style cost of the ABFT kernel
// protection scheme: arithmetic suboperations per item produced by a
// checksummed firing — one accumulate fused into the kernel's compute
// loop plus one re-accumulate when the checksum is re-derived from the
// communicated buffer at verification. Like CommGuard's suboperations
// (Fig. 14) these are accounted against committed instructions but never
// committed as instructions themselves.
const ABFTChecksumOpsPerItem = 2

// Model holds the manifestation weights. The defaults approximate the
// register-file residency of data, induction-variable, address and pointer
// values in compiled DSP loops; see DESIGN.md §7.
type Model struct {
	Weights [numClasses]float64
	// QueueProtected redirects QueuePtr manifestations to DataBitflip,
	// reflecting hardware that removed the queue-management error class.
	QueueProtected bool
}

// DefaultModel returns the calibrated manifestation weights from DESIGN.md.
func DefaultModel(queueProtected bool) Model {
	var m Model
	m.Weights[DataBitflip] = 0.55
	m.Weights[ControlTrip] = 0.20
	m.Weights[ControlFrame] = 0.05
	m.Weights[AddrSlip] = 0.15
	m.Weights[QueuePtr] = 0.05
	m.QueueProtected = queueProtected
	return m
}

// Validate reports whether the model's weights are usable.
func (m Model) Validate() error {
	total := 0.0
	for c, w := range m.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("fault: weight for %v is %v", Class(c), w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("fault: all weights zero")
	}
	return nil
}

// Sample draws a manifestation class.
func (m Model) Sample(r *rand.Rand) Class {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := r.Float64() * total
	for c := Class(1); c < numClasses; c++ {
		x -= m.Weights[c]
		if x < 0 {
			if c == QueuePtr && m.QueueProtected {
				return DataBitflip
			}
			return c
		}
	}
	return DataBitflip
}

// Counts tallies injected errors by class.
type Counts [numClasses]uint64

// Total returns the number of injected errors across all classes.
func (c Counts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// ByName returns the per-class tallies keyed by class name, the shape the
// telemetry snapshot serializes.
func (c Counts) ByName() map[string]uint64 {
	m := make(map[string]uint64, numClasses)
	for cls, v := range c {
		m[Class(cls).String()] = v
	}
	return m
}

// Injector schedules errors for one core. Inter-error gaps are drawn from
// an exponential distribution with the configured mean (the paper: "Each
// error injector picks a random target cycle in the future following the
// mean error rate"). Each core owns an independent Injector seeded from
// the run seed and the core index, matching the paper's per-core RNGs.
type Injector struct {
	mtbe   float64 // mean instructions between errors; <=0 disables
	rng    *rand.Rand
	model  Model
	nextAt float64 // absolute instruction index of the next error
	now    float64 // committed instructions so far
	counts Counts
}

// NewInjector creates an injector for one core. mtbe <= 0 disables
// injection (the error-free configuration).
func NewInjector(mtbe float64, seed int64, model Model) *Injector {
	inj := &Injector{
		mtbe:  mtbe,
		rng:   rand.New(rand.NewSource(seed)),
		model: model,
	}
	if mtbe > 0 {
		inj.nextAt = inj.rng.ExpFloat64() * mtbe
	} else {
		inj.nextAt = math.Inf(1)
	}
	return inj
}

// Rand exposes the injector's per-core RNG so manifestation details
// (which bit, which item, which direction) come from the same stream.
func (inj *Injector) Rand() *rand.Rand { return inj.rng }

// Advance commits n instructions on the core and returns the manifestation
// classes of every error that fired inside that window (usually none, at
// realistic MTBEs at most one).
func (inj *Injector) Advance(n int) []Class {
	if n <= 0 {
		return nil
	}
	inj.now += float64(n)
	if inj.now < inj.nextAt {
		return nil
	}
	var fired []Class
	for inj.nextAt <= inj.now {
		c := inj.model.Sample(inj.rng)
		inj.counts[c]++
		fired = append(fired, c)
		inj.nextAt += inj.rng.ExpFloat64() * inj.mtbe
	}
	return fired
}

// Quiet commits up to n consecutive windows of w instructions each,
// stopping before the first window in which Advance(w) would report an
// error, and returns how many windows it committed. It leaves the
// injector exactly as that many nil-returning Advance(w) calls would: the
// instruction count moves by the same float additions, and no random
// number is drawn, so the next Advance(w) fires the error that ended the
// run. A disabled injector (mtbe <= 0) commits all n windows; w <= 0
// commits nothing, as Advance does, and returns n.
func (inj *Injector) Quiet(w, n int) int {
	if w <= 0 {
		return max(n, 0)
	}
	k := 0
	for k < n && inj.now+float64(w) < inj.nextAt {
		inj.now += float64(w)
		k++
	}
	return k
}

// Instructions returns the number of instructions committed so far.
func (inj *Injector) Instructions() uint64 { return uint64(inj.now) }

// Counts returns the per-class tallies of injected errors.
func (inj *Injector) Counts() Counts { return inj.counts }

// CoreSeed derives a deterministic per-core seed from a run seed, matching
// the paper's independent per-core generators.
func CoreSeed(runSeed int64, core int) int64 {
	// SplitMix64-style mixing keeps nearby run seeds decorrelated.
	z := uint64(runSeed) + uint64(core+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
