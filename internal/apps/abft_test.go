package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"commguard/internal/codec/mp3codec"
	"commguard/internal/stream"
)

// kernelDomains draws one seeded input item in a kernel's item domain,
// keyed by "app/node", where a node name ending in a number ("chan0",
// "butterfly16") is keyed by its stem ("chan", "butterfly"); i is the
// item's index within its firing. Every checksummed kernel needs an entry
// here before TestABFTKernelContract accepts it (its fused sum must stay
// finite); other kernels default to random words.
var kernelDomains = map[string]func(r *rand.Rand, i int) uint32{
	// Per-sample float kernels, on signal-range samples.
	"fft/window":           f32Domain(-1, 1),
	"fft/bitrev":           f32Domain(-1, 1),
	"fft/butterfly":        f32Domain(-64, 64),
	"fft/magnitude":        f32Domain(-64, 64),
	"audiobeamformer/chan": f32Domain(-1, 1),
	"audiobeamformer/sum":  f32Domain(-1, 1),
	"channelvocoder/band":  f32Domain(-1, 1),
	"channelvocoder/env":   f32Domain(-1, 1),
	"channelvocoder/mix":   f32Domain(-1, 1),
	"complex-fir/cfir":     f32Domain(-1, 1),
	"doall/worker":         f32Domain(1, 1000),
	// Quantized DCT coefficients, signed integers on the tape.
	"jpeg/F1-dequant": func(r *rand.Rand, _ int) uint32 { return uint32(int32(r.Intn(129) - 64)) },
	// Dequantized coefficients as float32.
	"jpeg/F2-idct-color": func(r *rand.Rand, _ int) uint32 {
		return stream.F32Bits(float32(r.Float64()*2048 - 1024))
	},
	// One coded frame: Bands scale-factor indices, then quantizer codes.
	"mp3/F1-dequant": func(r *rand.Rand, i int) uint32 {
		if i < mp3codec.Bands {
			return uint32(r.Intn(64))
		}
		return uint32(r.Intn(8))
	},
	// MDCT coefficients as float32.
	"mp3/F2-imdct": func(r *rand.Rand, _ int) uint32 { return stream.F32Bits(float32(r.Float64()*2 - 1)) },
	// Widened IMDCT output and PCM, as float32 around the clamp range.
	"mp3/F3-overlap": func(r *rand.Rand, _ int) uint32 { return stream.F32Bits(float32(r.Float64()*6 - 3)) },
	"mp3/F4-pcm":     func(r *rand.Rand, _ int) uint32 { return stream.F32Bits(float32(r.Float64()*6 - 3)) },
}

// f32Domain draws float32 items uniformly from [lo, hi).
func f32Domain(lo, hi float64) func(r *rand.Rand, i int) uint32 {
	return func(r *rand.Rand, _ int) uint32 { return stream.F32Bits(float32(lo + r.Float64()*(hi-lo))) }
}

// domainFor looks up a node's input domain in kernelDomains.
func domainFor(app, node string) (func(r *rand.Rand, i int) uint32, bool) {
	if d, ok := kernelDomains[app+"/"+node]; ok {
		return d, true
	}
	d, ok := kernelDomains[app+"/"+strings.TrimRight(node, "0123456789")]
	return d, ok
}

// Every node of every builtin graph must honour Filter.WorkBatch's
// k-firing contract, which the sequential engine's runs rely on: one WorkBatch
// call over k firings on a fresh instance equals k single-firing calls,
// in order, on another, outputs and kernel state alike (a following
// firing must agree too, which catches a source's tape position or
// mp3's overlap tail; a sink's tape must agree), and no call writes to
// its input buffers.
//
// Every stream.ABFTKernel must also honour the contract the engine's
// ABFT repair relies on. ChecksumBatch over a clean k-firing output must
// reproduce the fused sum bit for bit, or every clean run would count as
// a correction. WorkBatch on the same, untouched input buffers must
// reproduce the output bit for bit, or the repair would not restore the
// run. Neither breach shows in any output: the repair recomputes the
// same output either way, so only this test sees them.
func TestABFTKernelContract(t *testing.T) {
	nodes, abft := 0, 0
	for _, b := range AllBuiltin() {
		probe, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		for idx, n := range probe.Graph.Nodes {
			nodes++
			key := b.Name + "/" + n.F.Name()
			draw, ok := domainFor(b.Name, n.F.Name())
			if _, isABFT := n.F.(stream.ABFTKernel); isABFT {
				abft++
				if !ok {
					t.Errorf("%s: ABFT kernel has no input domain in kernelDomains", key)
					continue
				}
			}
			if !ok {
				draw = func(r *rand.Rand, _ int) uint32 { return r.Uint32() }
			}
			for k := 1; k <= 3; k++ {
				checkKFirings(t, fmt.Sprintf("%s k=%d", key, k), b, idx, k, draw)
			}
		}
	}
	if nodes != 61 || abft != 4 {
		t.Errorf("checked %d kernels, %d of them ABFT; want all 61 nodes of the 7 builtins and 4 (jpeg and mp3 F1/F2)", nodes, abft)
	}
}

// checkKFirings runs node idx of two fresh instances of b, k firings in
// one call on one and one firing per call on the other, then one more
// firing on each, and compares everything the contracts name.
func checkKFirings(t *testing.T, name string, b Builder, idx, k int, draw func(r *rand.Rand, i int) uint32) {
	t.Helper()
	var kernels [2]stream.Filter
	for i := range kernels {
		inst, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		kernels[i] = inst.Graph.Nodes[idx].F
	}
	whole, single := kernels[0], kernels[1]
	pops, pushes := whole.PopRates(), whole.PushRates()
	r := rand.New(rand.NewSource(int64(k)))
	in := make([][]uint32, len(pops))
	for i, rate := range pops {
		in[i] = make([]uint32, k*rate)
		for j := range in[i] {
			in[i][j] = draw(r, j%rate)
		}
	}
	saved := make([][]uint32, len(in))
	for i := range in {
		saved[i] = slices.Clone(in[i])
	}
	outs := func(firings int) [][]uint32 {
		out := make([][]uint32, len(pushes))
		for o, rate := range pushes {
			out[o] = make([]uint32, firings*rate)
		}
		return out
	}
	// run fires kern once over in and out. A checksummed kernel's fused
	// sum must equal ChecksumBatch over its output on every call, so a
	// sum accumulator that outlives a call shows on the second one.
	run := func(what string, kern stream.Filter, in, out [][]uint32) {
		ak, ok := kern.(stream.ABFTKernel)
		if !ok {
			kern.WorkBatch(in, out)
			return
		}
		sum := ak.WorkBatchABFT(in, out)
		if check := ak.ChecksumBatch(out); math.Float64bits(check) != math.Float64bits(sum) {
			t.Errorf("%s: %s: ChecksumBatch %v != fused sum %v", name, what, check, sum)
		}
	}

	got, want := outs(k), outs(k)
	run("the k-firing call", whole, in, got)
	for j := range k {
		inJ, outJ := make([][]uint32, len(in)), make([][]uint32, len(want))
		for i, rate := range pops {
			inJ[i] = in[i][j*rate : (j+1)*rate]
		}
		for o, rate := range pushes {
			outJ[o] = want[o][j*rate : (j+1)*rate]
		}
		run(fmt.Sprintf("single call %d", j), single, inJ, outJ)
	}
	for i := range in {
		if !slices.Equal(in[i], saved[i]) {
			t.Errorf("%s: kernel changed input buffer %d", name, i)
		}
	}
	for o := range got {
		if !slices.Equal(got[o], want[o]) {
			t.Errorf("%s: one %d-firing call differs from %d single calls on port %d", name, k, k, o)
		}
	}
	if ak, ok := whole.(stream.ABFTKernel); ok {
		redo := outs(k)
		ak.WorkBatch(in, redo)
		for o := range got {
			if !slices.Equal(redo[o], got[o]) {
				t.Errorf("%s: WorkBatch repair differs from the fused output on port %d", name, o)
			}
		}
	}

	// The state each form left behind must drive the next firing alike.
	next := make([][]uint32, len(pops))
	for i, rate := range pops {
		next[i] = make([]uint32, rate)
		for j := range next[i] {
			next[i][j] = draw(r, j)
		}
	}
	gotNext, wantNext := outs(1), outs(1)
	run("the firing after the run", whole, next, gotNext)
	run("the firing after the single calls", single, next, wantNext)
	for o := range gotNext {
		if !slices.Equal(gotNext[o], wantNext[o]) {
			t.Errorf("%s: the firing after the run differs on port %d", name, o)
		}
	}
	if sink, ok := whole.(*stream.Sink); ok && !slices.Equal(sink.Collected(), single.(*stream.Sink).Collected()) {
		t.Errorf("%s: sink tapes differ", name)
	}
}
