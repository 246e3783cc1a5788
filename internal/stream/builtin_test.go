package stream_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"commguard/internal/stream"
)

// The builtin whole-firing kernels under Filter.WorkBatch's k-firing
// contract, with unequal round-robin weights: one call over k firings
// must equal k single-firing calls on another instance, and both must
// equal what the kernel's definition deals each firing.
func TestBuiltinKernelsKFirings(t *testing.T) {
	cases := []struct {
		name string
		new  func() stream.Filter
		// want returns the outputs of firings over in by the kernel's
		// definition.
		want func(in [][]uint32) [][]uint32
	}{
		{"splitter-1-2-3", func() stream.Filter { return stream.NewRoundRobinSplitter("s", 1, 2, 3) },
			func(in [][]uint32) [][]uint32 { return deal(in[0], []int{1, 2, 3}) }},
		{"splitter-2-1", func() stream.Filter { return stream.NewRoundRobinSplitter("s", 2, 1) },
			func(in [][]uint32) [][]uint32 { return deal(in[0], []int{2, 1}) }},
		{"splitter-1-1-1", func() stream.Filter { return stream.NewRoundRobinSplitter("s", 1, 1, 1) },
			func(in [][]uint32) [][]uint32 { return deal(in[0], []int{1, 1, 1}) }},
		{"joiner-1-2-3", func() stream.Filter { return stream.NewRoundRobinJoiner("j", 1, 2, 3) },
			func(in [][]uint32) [][]uint32 { return [][]uint32{merge(in, []int{1, 2, 3})} }},
		{"joiner-2-1", func() stream.Filter { return stream.NewRoundRobinJoiner("j", 2, 1) },
			func(in [][]uint32) [][]uint32 { return [][]uint32{merge(in, []int{2, 1})} }},
		{"joiner-1-1-1", func() stream.Filter { return stream.NewRoundRobinJoiner("j", 1, 1, 1) },
			func(in [][]uint32) [][]uint32 { return [][]uint32{merge(in, []int{1, 1, 1})} }},
		{"duplicate-3", func() stream.Filter { return stream.NewDuplicateSplitter("d", 2, 3) },
			func(in [][]uint32) [][]uint32 { return [][]uint32{in[0], in[0], in[0]} }},
		{"identity-5", func() stream.Filter { return stream.NewIdentity("i", 5) },
			func(in [][]uint32) [][]uint32 { return [][]uint32{in[0]} }},
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range cases {
		for k := 1; k <= 4; k++ {
			name := fmt.Sprintf("%s/k=%d", c.name, k)
			kern := c.new()
			in := randomFirings(r, kern.PopRates(), k)
			saved := cloneBufs(in)
			got := runFirings(kern, in, k)
			want := runSingly(c.new(), in, k)
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s: one call %v, %d single calls %v", name, got, k, want)
			}
			if def := c.want(in); !slices.EqualFunc(got, def, slices.Equal) {
				t.Errorf("%s: got %v, by definition %v", name, got, def)
			}
			if !slices.EqualFunc(in, saved, slices.Equal) {
				t.Errorf("%s: kernel changed its input", name)
			}
		}
	}
}

// FuzzRoundRobinRuns checks the round-robin splitter and joiner on 1-4
// branches with weights 1-4 and runs of 1-16 firings: one call over the
// run equals one call per firing, and joining what the splitter dealt
// gives back its input.
func FuzzRoundRobinRuns(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(2), int64(1))     // jpeg's (1,1,1), 3 firings
	f.Add(uint8(2), uint8(0x24), uint8(15), int64(2)) // (1,2,3), 16 firings
	f.Add(uint8(0), uint8(3), uint8(0), int64(3))     // one branch of weight 4
	f.Fuzz(func(t *testing.T, branches, weights, firings uint8, seed int64) {
		ws := make([]int, int(branches)%4+1)
		for b := range ws {
			ws[b] = int(weights>>(2*b))&3 + 1
		}
		k := int(firings)%16 + 1
		r := rand.New(rand.NewSource(seed))
		split := stream.NewRoundRobinSplitter("split", ws...)
		in := randomFirings(r, split.PopRates(), k)
		dealt := runFirings(split, in, k)
		if want := runSingly(stream.NewRoundRobinSplitter("split", ws...), in, k); !slices.EqualFunc(dealt, want, slices.Equal) {
			t.Fatalf("weights %v, %d firings: splitter dealt %v, one firing per call %v", ws, k, dealt, want)
		}
		join := stream.NewRoundRobinJoiner("join", ws...)
		merged := runFirings(join, dealt, k)
		if want := runSingly(stream.NewRoundRobinJoiner("join", ws...), dealt, k); !slices.EqualFunc(merged, want, slices.Equal) {
			t.Fatalf("weights %v, %d firings: joiner merged %v, one firing per call %v", ws, k, merged, want)
		}
		if !slices.Equal(merged[0], in[0]) {
			t.Fatalf("weights %v, %d firings: join(split(x)) = %v, want %v", ws, k, merged[0], in[0])
		}
	})
}

// randomFirings returns k firings' worth of random input per port rate.
func randomFirings(r *rand.Rand, rates []int, k int) [][]uint32 {
	bufs := make([][]uint32, len(rates))
	for i, rate := range rates {
		bufs[i] = make([]uint32, k*rate)
		for j := range bufs[i] {
			bufs[i][j] = r.Uint32()
		}
	}
	return bufs
}

func cloneBufs(bufs [][]uint32) [][]uint32 {
	c := make([][]uint32, len(bufs))
	for i, b := range bufs {
		c[i] = slices.Clone(b)
	}
	return c
}

// runFirings runs k firings of kern over in in one WorkBatch call.
func runFirings(kern stream.Filter, in [][]uint32, k int) [][]uint32 {
	out := make([][]uint32, len(kern.PushRates()))
	for o, rate := range kern.PushRates() {
		out[o] = make([]uint32, k*rate)
	}
	kern.WorkBatch(in, out)
	return out
}

// runSingly runs the same k firings one WorkBatch call per firing.
func runSingly(kern stream.Filter, in [][]uint32, k int) [][]uint32 {
	pops, pushes := kern.PopRates(), kern.PushRates()
	out := make([][]uint32, len(pushes))
	for o, rate := range pushes {
		out[o] = make([]uint32, k*rate)
	}
	inJ, outJ := make([][]uint32, len(pops)), make([][]uint32, len(pushes))
	for j := range k {
		for i, rate := range pops {
			inJ[i] = in[i][j*rate : (j+1)*rate]
		}
		for o, rate := range pushes {
			outJ[o] = out[o][j*rate : (j+1)*rate]
		}
		kern.WorkBatch(inJ, outJ)
	}
	return out
}

// deal is the round-robin splitter by definition: each firing's next
// weights[b] items go to branch b, branch after branch.
func deal(x []uint32, weights []int) [][]uint32 {
	out := make([][]uint32, len(weights))
	for len(x) > 0 {
		for b, w := range weights {
			out[b] = append(out[b], x[:w]...)
			x = x[w:]
		}
	}
	return out
}

// merge is the round-robin joiner by definition: each firing takes the
// next weights[b] items of branch b, branch after branch.
func merge(in [][]uint32, weights []int) []uint32 {
	var out []uint32
	pos := make([]int, len(in))
	for pos[0] < len(in[0]) {
		for b, w := range weights {
			out = append(out, in[b][pos[b]:pos[b]+w]...)
			pos[b] += w
		}
	}
	return out
}
