package commguard

// Frame domains (§5.4): the base design uses one application-wide frame
// definition — every steady-state iteration is one frame on every edge.
// The paper notes CommGuard "can also support varying frame definitions
// across an application. This requires a redundant active-fc counter per
// frame domain."
//
// A frameDomain is exactly that redundant counter: it consumes the raw
// frame-computation events of its core and exposes a down-scaled domain
// frame counter. Both endpoints of an edge must use the same scale (they
// see the same number of steady-iteration events, so their domain counters
// agree), but different edges may use different scales — e.g. tiny frames
// on a low-rate control edge and large frames on a bulk-data edge.
//
// Wraparound: the domain keeps no event counter, only a countdown to its
// next domain frame (below scale) and the wire ID that frame will carry,
// so nothing can overflow but the ID itself. The wire frame ID is a
// 32-bit header field: it wraps mod 2^32 after 2^32 domain frames. Both
// endpoints of an edge consume the same event stream through the same
// deterministic function, so they wrap in lockstep and stay aligned; the
// Alignment Manager compares frame IDs with wraparound-aware serial-number
// arithmetic (alignment.go) so ordering survives the wrap. The only
// (documented) hazard is frame 0xFFFFFFFF aliasing the end-of-computation
// header ID; internal/check's CG005 warns ahead of time when a configured
// run length can reach that horizon.
type frameDomain struct {
	scale int
	left  int    // events still to come before the next domain frame starts
	next  uint32 // wire ID of the next domain frame
}

func newFrameDomain(scale int) frameDomain {
	if scale < 1 {
		scale = 1
	}
	return frameDomain{scale: scale}
}

// advance consumes one raw frame-computation event. It returns the domain
// frame ID and whether a new domain frame started at this event. The first
// event starts frame 0 and every scale-th one after it the next frame; the
// ID is the domain frame number truncated to the 32-bit wire width (see
// the wraparound note above).
func (d *frameDomain) advance() (uint32, bool) {
	if d.left > 0 {
		d.left--
		return d.next - 1, false
	}
	d.left = d.scale - 1
	d.next++
	return d.next - 1, true
}
