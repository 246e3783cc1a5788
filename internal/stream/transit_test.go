package stream

import (
	"slices"
	"testing"

	"commguard/internal/ppu"
)

// fakeIn serves a scripted sequence of values, zeros past its end; pos
// counts the values it delivered.
type fakeIn struct {
	values []uint32
	pos    int
}

func (f *fakeIn) PopN(dst []uint32) {
	for i := range dst {
		dst[i] = 0
		if f.pos < len(f.values) {
			dst[i] = f.values[f.pos]
			f.pos++
		}
	}
}

// fakeOut records pushed values.
type fakeOut struct {
	got []uint32
}

func (f *fakeOut) PushN(vs []uint32) { f.got = append(f.got, vs...) }
func (f *fakeOut) End()              {}

// transitThread builds the thread of filter f, which has one input and
// one output port, over the given ports.
func transitThread(t *testing.T, f Filter, in InPort, out OutPort) *thread {
	t.Helper()
	g := NewGraph()
	if _, err := g.Chain(NewSource("src", f.PopRates()[0], nil), f, NewSink("snk", f.PushRates()[0])); err != nil {
		t.Fatal(err)
	}
	core, err := ppu.NewCore(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Chain numbers the edges src->f 0 and f->snk 1.
	return newThread(g.Edges[0].Dst, core, 1, nil, []OutPort{nil, out}, []InPort{in, nil}, 0)
}

// Port transit: what a firing's kernel sees and what crosses the ports
// under each armed perturbation. Perturbations are armed before the first
// firing only; the filter costs 1 instruction, so its Loads and Stores
// count exactly the items the firings consumed and pushed.
func TestPortTransit(t *testing.T) {
	cases := []struct {
		name    string
		rate    int // pop and push rate
		src     []uint32
		firings int // 0 means 1
		arm     func(in *inTransit, out *outTransit)
		// abft makes the filter an ABFT kernel on a checksumming thread.
		abft bool

		seen     []uint32 // values the kernel read, over all firings
		consumed int      // items the firings consumed
		portPos  int      // items the input port delivered
		got      []uint32 // items the output port received
	}{
		{
			name: "in-pass-through", rate: 3, src: []uint32{10, 20, 30},
			seen: []uint32{10, 20, 30}, consumed: 3, portPos: 3, got: []uint32{10, 20, 30},
		},
		{
			// The plan is single-firing: the next firing is clean.
			name: "in-bit-flip", rate: 3, src: make([]uint32, 6), firings: 2,
			arm:  func(in *inTransit, _ *outTransit) { in.flipAt, in.flipBit = 1, 4 },
			seen: []uint32{0, 1 << 4, 0, 0, 0, 0}, consumed: 6, portPos: 6, got: []uint32{0, 1 << 4, 0, 0, 0, 0},
		},
		{
			// A slip delivers the previous value but still consumes 22.
			name: "in-addr-slip-keeps-count", rate: 3, src: []uint32{11, 22, 33},
			arm:  func(in *inTransit, _ *outTransit) { in.slipAt = 1 },
			seen: []uint32{11, 11, 33}, consumed: 3, portPos: 3, got: []uint32{11, 11, 33},
		},
		{
			// The last two pops are starved: stale value, port untouched,
			// the items left for the next frame.
			name: "in-starved-pops", rate: 4, src: []uint32{1, 2, 3, 4},
			arm:  func(in *inTransit, _ *outTransit) { in.starvedPops = 2 },
			seen: []uint32{1, 2, 2, 2}, consumed: 2, portPos: 2, got: []uint32{1, 2, 2, 2},
		},
		{
			name: "in-extra-pops", rate: 2, src: []uint32{1, 2, 3, 4, 5},
			arm:  func(in *inTransit, _ *outTransit) { in.extraPops = 2 },
			seen: []uint32{1, 2}, consumed: 4, portPos: 4, got: []uint32{1, 2},
		},
		{
			// A flip and a starved tail armed in one firing: the flip lands
			// on a consumed item and the tail repeats the flipped value.
			name: "in-flip-and-starved-tail", rate: 4, src: []uint32{10, 20, 30, 40},
			arm: func(in *inTransit, _ *outTransit) {
				in.flipAt, in.flipBit = 1, 0
				in.starvedPops = 2
			},
			seen: []uint32{10, 21, 21, 21}, consumed: 2, portPos: 2, got: []uint32{10, 21, 21, 21},
		},
		{
			name: "out-pass-through", rate: 2, src: []uint32{5, 6},
			seen: []uint32{5, 6}, consumed: 2, portPos: 2, got: []uint32{5, 6},
		},
		{
			name: "out-dropped-pushes", rate: 4, src: []uint32{1, 2, 3, 4},
			arm:  func(_ *inTransit, out *outTransit) { out.droppedPushes = 2 },
			seen: []uint32{1, 2, 3, 4}, consumed: 4, portPos: 4, got: []uint32{1, 2},
		},
		{
			// Extras repeat the last (stale register) value.
			name: "out-extra-pushes", rate: 2, src: []uint32{7, 8},
			arm:  func(_ *inTransit, out *outTransit) { out.extraPushes = 3 },
			seen: []uint32{7, 8}, consumed: 2, portPos: 2, got: []uint32{7, 8, 8, 8, 8},
		},
		{
			name: "out-bit-flip", rate: 2, src: []uint32{0, 0},
			arm:  func(_ *inTransit, out *outTransit) { out.flipAt, out.flipBit = 0, 31 },
			seen: []uint32{0, 0}, consumed: 2, portPos: 2, got: []uint32{1 << 31, 0},
		},
		{
			// An item-count perturbation keeps an ABFT kernel off the
			// checksummed form: WorkBatch runs and the ABFT counters do
			// not move.
			name: "abft-item-count-armed", rate: 2, src: []uint32{1, 2, 3}, abft: true,
			arm:  func(in *inTransit, _ *outTransit) { in.extraPops = 1 },
			seen: []uint32{1, 2}, consumed: 3, portPos: 3, got: []uint32{1, 2},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var seen []uint32
			work := func(in, out [][]uint32) {
				seen = append(seen, in[0]...)
				copy(out[0], in[0])
			}
			var f Filter = NewFuncFilter("f", c.rate, c.rate, 1, work)
			if c.abft {
				f = NewABFTFilter("f", c.rate, c.rate, 1,
					func(in, out [][]uint32) float64 { work(in, out); return ChecksumU32(out[0]) },
					func(out [][]uint32) float64 { return ChecksumU32(out[0]) })
			}
			in, out := &fakeIn{values: c.src}, &fakeOut{}
			th := transitThread(t, f, in, out)
			th.abft = c.abft
			if c.arm != nil {
				c.arm(th.ins[0], th.outs[0])
			}
			for i := 0; i < max(1, c.firings); i++ {
				th.fire()
			}
			if !slices.Equal(seen, c.seen) {
				t.Errorf("kernel saw %v, want %v", seen, c.seen)
			}
			if th.stats.Loads != uint64(c.consumed) {
				t.Errorf("consumed %d, want %d", th.stats.Loads, c.consumed)
			}
			if in.pos != c.portPos {
				t.Errorf("input port delivered %d, want %d", in.pos, c.portPos)
			}
			if !slices.Equal(out.got, c.got) {
				t.Errorf("output port received %v, want %v", out.got, c.got)
			}
			if th.stats.Stores != uint64(len(c.got)) {
				t.Errorf("pushed %d, want %d", th.stats.Stores, len(c.got))
			}
			if th.stats.ABFT != (ABFTStats{}) {
				t.Errorf("ABFT stats moved: %+v", th.stats.ABFT)
			}
		})
	}
}
