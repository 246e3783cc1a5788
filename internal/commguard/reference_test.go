package commguard

import (
	"math"
	"testing"

	"commguard/internal/queue"
)

// refFrameDomain is frameDomain's former form, kept as a test-only
// reference: a 64-bit event counter, divided by the scale at every event.
type refFrameDomain struct {
	scale int
	raw   uint64
	fc    uint32
}

// refDomainAt is the reference after events raw frame-computation events.
func refDomainAt(scale int, events uint64) refFrameDomain {
	d := refFrameDomain{scale: newFrameDomain(scale).scale, raw: events}
	if events > 0 {
		d.fc = uint32((events - 1) / uint64(d.scale))
	}
	return d
}

func (d *refFrameDomain) advance() (uint32, bool) {
	idx := d.raw
	d.raw++
	if idx%uint64(d.scale) != 0 {
		return d.fc, false
	}
	d.fc = uint32(idx / uint64(d.scale))
	return d.fc, true
}

// domainAt is a frameDomain in the state events raw frame-computation
// events leave it in: the domain frames started so far set the next wire
// ID, and the countdown runs to the next multiple of the scale.
func domainAt(scale int, events uint64) frameDomain {
	d := newFrameDomain(scale)
	s := uint64(d.scale)
	frames := events / s
	if events%s != 0 {
		frames++
	}
	d.next = uint32(frames)
	d.left = int(frames*s - events)
	return d
}

// checkDomainMatches advances d and ref n times and fails at the first
// event where their frame IDs or frame starts differ.
func checkDomainMatches(t *testing.T, d *frameDomain, ref *refFrameDomain, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		event := ref.raw
		fc, started := d.advance()
		wantFC, wantStarted := ref.advance()
		if fc != wantFC || started != wantStarted {
			t.Fatalf("scale %d, event %d: got (%d,%v), want (%d,%v)",
				ref.scale, event, fc, started, wantFC, wantStarted)
		}
	}
}

func TestFrameDomainMatchesReference(t *testing.T) {
	for scale := 1; scale <= 16; scale++ {
		d, ref := newFrameDomain(scale), refFrameDomain{scale: scale}
		checkDomainMatches(t, &d, &ref, 100_000)
	}
}

// FuzzFrameDomain starts both forms at any scale (values below 1 clamp to
// 1) and any event count, frame boundary or not, and runs them in step.
func FuzzFrameDomain(f *testing.F) {
	f.Add(int32(1), uint64(0), uint32(0), uint16(64))
	f.Add(int32(4), uint64(1)<<30, uint32(3), uint16(64))
	f.Add(int32(1), uint64(1)<<32-2, uint32(0), uint16(8))
	f.Add(int32(0), uint64(7), uint32(0), uint16(8))
	f.Add(int32(-3), uint64(0), uint32(0), uint16(8))
	f.Fuzz(func(t *testing.T, scale int32, frame uint64, phase uint32, n uint16) {
		s := uint64(newFrameDomain(int(scale)).scale)
		// Keep the reference's event counter far from 2^64, which no run
		// reaches: frame*s + phase + n stays below 2^63 + 2^32 + 2^16.
		frame %= (math.MaxUint64 >> 1) / s
		events := frame*s + uint64(phase)%s
		d, ref := domainAt(int(scale), events), refDomainAt(int(scale), events)
		checkDomainMatches(t, &d, &ref, int(n))
	})
}

// refPopN is AlignmentManager.PopN's former form, kept as a test-only
// reference: outside RcvCmp every unit, the frame header included, takes
// the per-item Pop FSM, and only RcvCmp's items stream through PopDataN.
func refPopN(am *AlignmentManager, dst []uint32) {
	i := 0
	for i < len(dst) {
		if am.state != RcvCmp {
			dst[i] = am.Pop()
			i++
			continue
		}
		am.det.Observe(am.stats.ItemsDelivered)
		n, stop := am.q.PopDataN(dst[i:])
		if n > 0 {
			am.ops.FSMCounter += uint64(n)
			am.ops.HeaderBit += uint64(n)
			am.stats.ItemsDelivered += uint64(n)
			i += n
		}
		if i >= len(dst) {
			break
		}
		switch stop {
		case queue.PopStopHeader:
			dst[i] = am.Pop()
			i++
		case queue.PopStopFail:
			am.ops.FSMCounter++
			am.stats.TimeoutPads++
			am.stats.PaddedItems++
			dst[i] = am.pad
			i++
		}
	}
}
