package apps

import (
	"fmt"

	"commguard/internal/codec/mp3codec"
	"commguard/internal/stream"
)

// MP3Config sizes the mp3 benchmark workload.
type MP3Config struct {
	// Frames is the number of coded audio frames (256 PCM samples each).
	Frames int
}

// DefaultMP3Config gives roughly half a minute of frame computations at
// experiment scale.
func DefaultMP3Config() MP3Config { return MP3Config{Frames: 64} }

// NewMP3 builds the mp3 decode benchmark as a 6-node pipeline mirroring
// the Layer-III decode stages: F0 coded-frame source -> F1 scale-factor
// dequantizer -> F2 IMDCT -> F3 overlap-add -> F4 PCM conditioning ->
// F5 sink. The quality reference is the original PCM, so the score folds
// together algorithmic and error-induced lossiness exactly like the paper
// (§6, "compare the result quality (both algorithmic and error-prone
// lossiness) with the baseline").
func NewMP3(cfg MP3Config) (*Instance, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("apps: mp3 needs at least one frame, got %d", cfg.Frames)
	}
	w, err := loadWorkload(cfg, mp3Workload)
	if err != nil {
		return nil, err
	}

	g := stream.NewGraph()
	src := g.Add(stream.NewSource("F0-frames", mp3codec.ItemsPerFrame, w.tape))

	// Kernels reuse closure-captured scratch and loop over the frames of
	// however many firings they are handed. The two compute-heavy stages
	// are ABFT kernels, with the output checksum fused in the pushed
	// float32 domain and carried across frames. F3 keeps its overlap tail
	// across firings, frame by frame in order, so it stays
	// un-checksummed: ABFT repair re-runs the kernel, which needs the
	// kernel to be stateless.
	var dqItems [mp3codec.ItemsPerFrame]int32
	dequant := stream.NewABFTFilter("F1-dequant", mp3codec.ItemsPerFrame, mp3codec.N, 1500, func(in, out [][]uint32) float64 {
		var coeffs [mp3codec.N]float64
		s := 0.0
		for f := 0; f*mp3codec.ItemsPerFrame < len(in[0]); f++ {
			src := in[0][f*mp3codec.ItemsPerFrame : (f+1)*mp3codec.ItemsPerFrame]
			dst := out[0][f*mp3codec.N : (f+1)*mp3codec.N]
			for i := range dqItems {
				dqItems[i] = int32(src[i])
			}
			mp3codec.DequantizeFrame(dqItems[:], &coeffs)
			for i, c := range coeffs {
				y := float32(c)
				dst[i] = stream.F32Bits(y)
				s += float64(y)
			}
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumF32(out[0]) })

	imdct := stream.NewABFTFilter("F2-imdct", mp3codec.N, 2*mp3codec.N, 20000, func(in, out [][]uint32) float64 {
		var coeffs [mp3codec.N]float64
		var widened [2 * mp3codec.N]float64
		s := 0.0
		for f := 0; f*mp3codec.N < len(in[0]); f++ {
			src := in[0][f*mp3codec.N : (f+1)*mp3codec.N]
			dst := out[0][f*2*mp3codec.N : (f+1)*2*mp3codec.N]
			for i := range coeffs {
				coeffs[i] = sanitize(float64(stream.BitsF32(src[i])))
			}
			mp3codec.IMDCT(&coeffs, &widened)
			for i, v := range widened {
				y := float32(v)
				dst[i] = stream.F32Bits(y)
				s += float64(y)
			}
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumF32(out[0]) })

	var tail [mp3codec.N]float64
	ola := stream.NewFuncFilter("F3-overlap", 2*mp3codec.N, mp3codec.N, 2500, func(in, out [][]uint32) {
		var cur [2 * mp3codec.N]float64
		var res [mp3codec.N]float64
		for f := 0; f*2*mp3codec.N < len(in[0]); f++ {
			src := in[0][f*2*mp3codec.N : (f+1)*2*mp3codec.N]
			dst := out[0][f*mp3codec.N : (f+1)*mp3codec.N]
			for i := range cur {
				cur[i] = sanitize(float64(stream.BitsF32(src[i])))
			}
			mp3codec.OverlapAdd(&tail, &cur, &res)
			for i, v := range res {
				dst[i] = stream.F32Bits(float32(v))
			}
		}
	})

	condition := stream.NewFuncFilter("F4-pcm", mp3codec.N, mp3codec.N, 800, func(in, out [][]uint32) {
		for i := range in[0] {
			v := sanitize(float64(stream.BitsF32(in[0][i])))
			if v > 2 {
				v = 2
			}
			if v < -2 {
				v = -2
			}
			out[0][i] = stream.F32Bits(float32(v))
		}
	})

	sink := stream.NewSink("F5-pcm-out", mp3codec.N)
	n1 := g.Add(dequant)
	n2 := g.Add(imdct)
	n3 := g.Add(ola)
	n4 := g.Add(condition)
	n5 := g.Add(sink)
	if err := g.ChainNodes(src, n1, n2, n3, n4, n5); err != nil {
		return nil, err
	}

	return &Instance{
		Name:      "mp3",
		Metric:    "SNR",
		Graph:     g,
		Output:    func() []float64 { return f32TapeToF64(sink.Collected()) },
		Reference: w.ref,
		Quality:   snrQuality,
	}, nil
}

// mp3Workload synthesizes cfg.Frames frames of test audio, encodes them
// and unpacks the bitstream into the coded-frame tape; the PCM is the
// reference.
func mp3Workload(cfg MP3Config) (workload, error) {
	pcm := mp3codec.TestSignal(cfg.Frames * mp3codec.FrameSamples)
	data, err := mp3codec.Encode(pcm)
	if err != nil {
		return workload{}, err
	}
	cs, err := mp3codec.DecodeCoeffs(data)
	if err != nil {
		return workload{}, err
	}
	tape := make([]uint32, len(cs.Items))
	for i, v := range cs.Items {
		tape[i] = uint32(v)
	}
	return workload{tape: tape, ref: pcm}, nil
}
