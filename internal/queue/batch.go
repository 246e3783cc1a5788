package queue

// Batch transit. A steady-state filter firing performs rate-many pushes or
// pops with no intervening control flow, so the engine can hand the whole
// slice to the queue at once. Each batch call is semantically identical to
// the same sequence of per-item Push/Pop calls — same Stats deltas, same
// working-set publish/return points, same timeout accounting — it merely
// amortizes the slot-address computation and per-call overhead across a
// contiguous span of the current working set. Degenerate local-offset
// states (possible after CorruptLocalOffset) fall back to the per-item
// path so corrupted executions behave exactly as before.

// PopStop explains why PopDataN stopped before filling its destination.
type PopStop int

const (
	// PopStopFull: the destination slice was filled completely.
	PopStopFull PopStop = iota
	// PopStopHeader: the next unit is a frame header. It has NOT been
	// consumed; the caller (the Alignment Manager) must take its per-item
	// FSM path to process it.
	PopStopHeader
	// PopStopFail: a pop failed (timeout, or closed and drained). Exactly
	// one timeout has been counted, matching one failed per-item Pop.
	PopStopFail
)

// PushDataN pushes every value of vs as a data unit, equivalent to calling
// Push(DataUnit(v)) once per element.
//
//queue:side producer
//hotpath:entry
func (q *Queue) PushDataN(vs []uint32) {
	plain := q.plain
	s := uint32(q.cfg.WorkingSetUnits)
	for len(vs) > 0 {
		off := uint32(q.prodOffset.load(plain))
		if off == 0 {
			if q.prodWS-q.cachedDrained < uint32(q.cfg.WorkingSets) {
				q.pushStreak = 0
			} else {
				q.acquireFillSlot()
				off = uint32(q.prodOffset.load(plain))
			}
		}
		if off >= s {
			q.Push(DataUnit(vs[0]))
			vs = vs[1:]
			continue
		}
		n := uint32(len(vs))
		if room := s - off; n > room {
			n = room
		}
		start := q.prodBase + off
		ws := q.buf[start : start+n]
		src := vs[:len(ws)]
		if plain {
			for i, v := range src {
				ws[i].store(true, uint64(DataUnit(v)))
			}
		} else {
			for i, v := range src {
				ws[i].store(false, uint64(DataUnit(v)))
			}
		}
		q.stats.itemStores.add(plain, uint64(n))
		off += n
		q.prodOffset.store(plain, uint64(off))
		if off >= s {
			q.publish(s)
		}
		vs = vs[n:]
	}
}

// PopDataN pops data units into dst, stopping early at the first header
// (left unconsumed — the Alignment Manager's FSM must see it) or at a
// failed pop. It returns the number of data payloads delivered and the
// stop reason. Equivalent to per-item Pops for the delivered prefix.
//
//queue:side consumer
//hotpath:entry
func (q *Queue) PopDataN(dst []uint32) (int, PopStop) {
	plain := q.plain
	s := uint32(q.cfg.WorkingSetUnits)
	popped := 0
	for popped < len(dst) {
		if int32(q.cachedFilled-q.consWS) <= 0 && !q.acquireDrainSlot() {
			return popped, PopStopFail
		}
		off := uint32(q.consOffset.load(plain))
		limit := uint32(q.wsLen[q.consWSIdx].load(plain))
		if off >= limit || limit > s {
			// Degenerate geometry: replicate one per-item Pop, except a
			// header is left in place for the caller's FSM path.
			u := Unit(q.buf[q.consBase+off%s].load(plain))
			if u.IsHeader() {
				return popped, PopStopHeader
			}
			q.stats.itemLoads.add(plain, 1)
			off++
			q.consOffset.store(plain, uint64(off))
			if off >= limit {
				q.returnWS()
			}
			dst[popped] = u.Payload()
			popped++
			continue
		}
		n := uint32(len(dst) - popped)
		if avail := limit - off; n > avail {
			n = avail
		}
		start := q.consBase + off
		ws := q.buf[start : start+n]
		out := dst[popped : popped+len(ws)]
		consumed := len(ws)
		if plain {
			for i := range ws {
				u := Unit(ws[i].load(true))
				if u.IsHeader() {
					consumed = i
					break
				}
				out[i] = u.Payload()
			}
		} else {
			for i := range ws {
				u := Unit(ws[i].load(false))
				if u.IsHeader() {
					consumed = i
					break
				}
				out[i] = u.Payload()
			}
		}
		if consumed > 0 {
			q.stats.itemLoads.add(plain, uint64(consumed))
			off += uint32(consumed)
			q.consOffset.store(plain, uint64(off))
			if off >= limit {
				q.returnWS()
			}
			popped += consumed
		}
		if consumed < len(ws) {
			return popped, PopStopHeader
		}
	}
	return popped, PopStopFull
}
