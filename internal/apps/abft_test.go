package apps

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"commguard/internal/codec/mp3codec"
	"commguard/internal/stream"
)

// abftDomains draws one seeded input item in each checksummed kernel's
// item domain, keyed by "app/node". A new ABFT kernel needs an entry here
// before TestABFTKernelContract accepts it.
var abftDomains = map[string]func(r *rand.Rand, i int) uint32{
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
}

// Every stream.ABFTKernel in the builtin graphs must honour the contract
// the engine's ABFT repair relies on. ChecksumBatch over a clean output
// must reproduce the fused sum bit for bit, or every clean firing would
// count as a correction. WorkBatch on the same, untouched input buffers
// must reproduce the output bit for bit, or the repair would not restore
// the firing. Neither breach shows in any output: the repair recomputes
// the same output either way, so only this test sees them.
func TestABFTKernelContract(t *testing.T) {
	checked := 0
	for _, b := range AllBuiltin() {
		inst, err := b.New()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range inst.Graph.Nodes {
			k, ok := n.F.(stream.ABFTKernel)
			if !ok {
				continue
			}
			checked++
			key := b.Name + "/" + n.F.Name()
			draw, ok := abftDomains[key]
			if !ok {
				t.Errorf("%s: ABFT kernel has no input domain in abftDomains", key)
				continue
			}
			r := rand.New(rand.NewSource(1))
			in := make([][]uint32, len(n.In))
			for i, e := range n.In {
				in[i] = make([]uint32, e.PopRate())
			}
			out := make([][]uint32, len(n.Out))
			redo := make([][]uint32, len(n.Out))
			for o, e := range n.Out {
				out[o] = make([]uint32, e.PushRate())
				redo[o] = make([]uint32, e.PushRate())
			}
			// Several firings on fresh inputs, so state carried from one
			// firing into the next shows up in the repair.
			for firing := 0; firing < 4; firing++ {
				for _, buf := range in {
					for i := range buf {
						buf[i] = draw(r, i)
					}
				}
				saved := make([][]uint32, len(in))
				for i, buf := range in {
					saved[i] = slices.Clone(buf)
				}
				sum := k.WorkBatchABFT(in, out)
				if check := k.ChecksumBatch(out); math.Float64bits(check) != math.Float64bits(sum) {
					t.Errorf("%s firing %d: ChecksumBatch %v != fused sum %v", key, firing, check, sum)
				}
				k.WorkBatch(in, redo)
				for i := range in {
					if !slices.Equal(in[i], saved[i]) {
						t.Errorf("%s firing %d: kernel changed input buffer %d", key, firing, i)
					}
				}
				for o := range out {
					if !slices.Equal(redo[o], out[o]) {
						t.Errorf("%s firing %d: WorkBatch repair differs from the fused output on port %d", key, firing, o)
					}
				}
			}
		}
	}
	if checked != 4 {
		t.Errorf("checked %d ABFT kernels, want 4 (jpeg and mp3 F1/F2)", checked)
	}
}
