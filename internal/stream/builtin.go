package stream

// Source feeds a finite input tape into the graph, rate items per firing.
// When the tape runs out it pushes zeros; the engine sizes the run so that
// an error-free execution never reads past the tape.
type Source struct {
	name string
	rate int
	data []uint32
	pos  int
}

// NewSource creates a source pushing rate items per firing from data. The
// source never writes to data.
func NewSource(name string, rate int, data []uint32) *Source {
	return &Source{name: name, rate: rate, data: data}
}

func (s *Source) Name() string     { return s.name }
func (s *Source) PopRates() []int  { return nil }
func (s *Source) PushRates() []int { return []int{s.rate} }

// WorkBatch implements Filter: the tape's next values in order, zeros
// past its end.
func (s *Source) WorkBatch(in, out [][]uint32) {
	dst := out[0]
	n := min(len(dst), len(s.data)-s.pos)
	copy(dst, s.data[s.pos:s.pos+n])
	clear(dst[n:])
	s.pos += n
}

// Remaining returns the unread portion of the tape (for diagnostics).
func (s *Source) Remaining() int { return len(s.data) - s.pos }

// Tape returns the whole input tape. One tape may back many sources, so
// callers must not write to it.
func (s *Source) Tape() []uint32 { return s.data }

var _ Filter = (*Source)(nil)

// Sink collects the graph's output tape, rate items per firing.
type Sink struct {
	name string
	rate int
	out  []uint32
}

// NewSink creates a sink popping rate items per firing.
func NewSink(name string, rate int) *Sink {
	return &Sink{name: name, rate: rate}
}

func (s *Sink) Name() string     { return s.name }
func (s *Sink) PopRates() []int  { return []int{s.rate} }
func (s *Sink) PushRates() []int { return nil }

// WorkBatch implements Filter. The engine presizes the tape for the
// whole run, so the append does not regrow it there; firings past that
// size (or outside the engine) still grow it. Sink is deliberately
// not a //hotpath:entry (tape collection is test and measurement
// plumbing, not a protected kernel).
func (s *Sink) WorkBatch(in, out [][]uint32) {
	s.out = append(s.out, in[0]...)
}

// Collected returns everything the sink consumed. Only read it after the
// engine's Run has returned.
func (s *Sink) Collected() []uint32 { return s.out }

var _ Filter = (*Sink)(nil)

// Identity forwards rate items per firing unchanged.
type Identity struct {
	name string
	rate int
}

// NewIdentity creates an identity filter.
func NewIdentity(name string, rate int) *Identity { return &Identity{name: name, rate: rate} }

func (f *Identity) Name() string     { return f.name }
func (f *Identity) PopRates() []int  { return []int{f.rate} }
func (f *Identity) PushRates() []int { return []int{f.rate} }

// WorkBatch implements Filter.
//
//hotpath:entry
func (f *Identity) WorkBatch(in, out [][]uint32) {
	copy(out[0], in[0])
}

var _ Filter = (*Identity)(nil)

// DuplicateSplitter is StreamIt's duplicate splitter: each popped item is
// pushed to every output branch.
type DuplicateSplitter struct {
	name     string
	rate     int
	branches int
}

// NewDuplicateSplitter duplicates rate items per firing to branches outputs.
func NewDuplicateSplitter(name string, rate, branches int) *DuplicateSplitter {
	return &DuplicateSplitter{name: name, rate: rate, branches: branches}
}

func (f *DuplicateSplitter) Name() string    { return f.name }
func (f *DuplicateSplitter) PopRates() []int { return []int{f.rate} }
func (f *DuplicateSplitter) PushRates() []int {
	rates := make([]int, f.branches)
	for i := range rates {
		rates[i] = f.rate
	}
	return rates
}

// WorkBatch implements Filter.
//
//hotpath:entry
func (f *DuplicateSplitter) WorkBatch(in, out [][]uint32) {
	for b := range out {
		copy(out[b], in[0])
	}
}

var _ Filter = (*DuplicateSplitter)(nil)

// RoundRobinSplitter deals items to branches in weighted round-robin order:
// weights[0] items to branch 0, then weights[1] to branch 1, and so on.
// This is StreamIt's roundrobin(w0, w1, ...) splitter; jpeg uses it to deal
// R, G and B components to parallel branches (Fig. 1).
type RoundRobinSplitter struct {
	name    string
	weights []int
	total   int // items per firing: the sum of weights
}

// NewRoundRobinSplitter creates a weighted round-robin splitter.
func NewRoundRobinSplitter(name string, weights ...int) *RoundRobinSplitter {
	return &RoundRobinSplitter{name: name, weights: weights, total: sumWeights(weights)}
}

func (f *RoundRobinSplitter) Name() string     { return f.name }
func (f *RoundRobinSplitter) PopRates() []int  { return []int{f.total} }
func (f *RoundRobinSplitter) PushRates() []int { return append([]int(nil), f.weights...) }

// WorkBatch implements Filter: branch b gathers its weights[b]
// items of every firing, one strided pass per branch.
//
//hotpath:entry
func (f *RoundRobinSplitter) WorkBatch(in, out [][]uint32) {
	src := in[0]
	off := 0
	for b, w := range f.weights {
		gather(out[b], src, off, w, f.total)
		off += w
	}
}

// gather fills dst with the w-item blocks of src that start at off and
// recur every stride items, one strided loop per lane of the block (a unit
// weight is one strided loop).
//
//hotpath:entry
func gather(dst, src []uint32, off, w, stride int) {
	for i := range w {
		s := off + i
		for j := i; j < len(dst); j += w {
			dst[j] = src[s]
			s += stride
		}
	}
}

// scatter is gather's inverse: it spreads src's w-item blocks over dst,
// starting at off and every stride items.
//
//hotpath:entry
func scatter(dst, src []uint32, off, w, stride int) {
	for i := range w {
		d := off + i
		for j := i; j < len(src); j += w {
			dst[d] = src[j]
			d += stride
		}
	}
}

func sumWeights(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	return total
}

var _ Filter = (*RoundRobinSplitter)(nil)

// RoundRobinJoiner merges branches in weighted round-robin order, the dual
// of RoundRobinSplitter.
type RoundRobinJoiner struct {
	name    string
	weights []int
	total   int // items per firing: the sum of weights
}

// NewRoundRobinJoiner creates a weighted round-robin joiner.
func NewRoundRobinJoiner(name string, weights ...int) *RoundRobinJoiner {
	return &RoundRobinJoiner{name: name, weights: weights, total: sumWeights(weights)}
}

func (f *RoundRobinJoiner) Name() string     { return f.name }
func (f *RoundRobinJoiner) PopRates() []int  { return append([]int(nil), f.weights...) }
func (f *RoundRobinJoiner) PushRates() []int { return []int{f.total} }

// WorkBatch implements Filter: branch b's items land as the
// weights[b]-item blocks of every firing, one strided pass per branch.
//
//hotpath:entry
func (f *RoundRobinJoiner) WorkBatch(in, out [][]uint32) {
	dst := out[0]
	off := 0
	for b, w := range f.weights {
		scatter(dst, in[b], off, w, f.total)
		off += w
	}
}

var _ Filter = (*RoundRobinJoiner)(nil)

// FuncFilter adapts a whole-firing kernel function to the Filter
// interface for simple single-input single-output stages.
type FuncFilter struct {
	name     string
	popRate  int
	pushRate int
	cost     int
	work     func(in, out [][]uint32)
}

// NewFuncFilter builds a filter from a whole-firing kernel, which runs
// k >= 1 firings per call under Filter.WorkBatch's contract. cost <= 0
// selects the default communication-based cost model.
func NewFuncFilter(name string, popRate, pushRate, cost int, work func(in, out [][]uint32)) *FuncFilter {
	return &FuncFilter{name: name, popRate: popRate, pushRate: pushRate, cost: cost, work: work}
}

func (f *FuncFilter) Name() string { return f.name }
func (f *FuncFilter) PopRates() []int {
	if f.popRate == 0 {
		return nil
	}
	return []int{f.popRate}
}
func (f *FuncFilter) PushRates() []int {
	if f.pushRate == 0 {
		return nil
	}
	return []int{f.pushRate}
}

// WorkBatch implements Filter.
func (f *FuncFilter) WorkBatch(in, out [][]uint32) { f.work(in, out) }

// FiringCost implements Coster.
func (f *FuncFilter) FiringCost() int {
	if f.cost > 0 {
		return f.cost
	}
	return CommInstructionRatio*(f.popRate+f.pushRate) + 10
}

var _ Coster = (*FuncFilter)(nil)
