package apps

import (
	"fmt"

	"commguard/internal/codec/jpegcodec"
	"commguard/internal/stream"
)

// JPEGConfig sizes the jpeg benchmark workload.
type JPEGConfig struct {
	// W, H are the image dimensions; W must make whole MCU rows (the sink
	// consumes one 8-pixel-high row per firing, Fig. 2) and H whole rows.
	W, H int
	// Quality is the encoder quality (1..100).
	Quality int
}

// DefaultJPEGConfig uses a 640-pixel-wide image so the sink's pop rate is
// the paper's 15360 items per firing (80 MCUs x 192 items, Fig. 2), and
// enough 8-pixel rows (frames) that a single realigned frame costs a few
// percent of the image, as in the paper's photo.
func DefaultJPEGConfig() JPEGConfig {
	return JPEGConfig{W: 640, H: 192, Quality: 75}
}

// NewJPEG builds the jpeg decode benchmark: the 10-node streaming graph of
// Fig. 1. The compressed bitstream is entropy-decoded into the source tape
// (coefficients); the graph performs dequantization, IDCT, color
// conversion, data-parallel per-channel processing (the R/G/B split-join)
// and row assembly.
//
// Graph (10 nodes): F0 coeff source -> F1 dequant -> F2 IDCT+color ->
// split(R,G,B) -> F3R/F3G/F3B channel conditioners -> join -> F6 row
// assembler -> F7 sink.
func NewJPEG(cfg JPEGConfig) (*Instance, error) {
	if cfg.W%8 != 0 || cfg.H%8 != 0 || cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("apps: jpeg dimensions %dx%d not multiples of 8", cfg.W, cfg.H)
	}
	w, err := loadWorkload(cfg, jpegWorkload)
	if err != nil {
		return nil, err
	}
	lumaQ, chromaQ := jpegcodec.QuantTables(cfg.Quality)

	g := stream.NewGraph()
	src := g.Add(stream.NewSource("F0-coeffs", jpegcodec.CoeffsPerMCU, w.tape))

	// Every stage's kernel loops over the 192-item blocks of however many
	// firings it is handed. The two compute stages are ABFT kernels, with
	// the output checksum fused in and carried across blocks: F1's sum
	// lives in the pushed float32 domain, F2's in the raw pixel words.
	dequant := stream.NewABFTFilter("F1-dequant", 192, 192, 1200, func(in, out [][]uint32) float64 {
		var zz [64]int32
		var blk [64]float64
		s := 0.0
		for b := 0; b < len(in[0]); b += 192 {
			src, dst := in[0][b:b+192], out[0][b:b+192]
			for ci := 0; ci < 3; ci++ {
				for i := 0; i < 64; i++ {
					zz[i] = int32(src[ci*64+i])
				}
				quant := &lumaQ
				if ci > 0 {
					quant = &chromaQ
				}
				jpegcodec.DequantizeBlock(zz[:], quant, &blk)
				for i := 0; i < 64; i++ {
					y := float32(blk[i])
					dst[ci*64+i] = stream.F32Bits(y)
					s += float64(y)
				}
			}
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumF32(out[0]) })

	idctColor := stream.NewABFTFilter("F2-idct-color", 192, 192, 6500, func(in, out [][]uint32) float64 {
		var comps [3][64]float64
		var rgb [192]uint8
		s := 0.0
		for b := 0; b < len(in[0]); b += 192 {
			src, dst := in[0][b:b+192], out[0][b:b+192]
			for ci := 0; ci < 3; ci++ {
				for i := 0; i < 64; i++ {
					comps[ci][i] = sanitize(float64(stream.BitsF32(src[ci*64+i])))
				}
				jpegcodec.ReconstructBlock(&comps[ci])
			}
			jpegcodec.MCUToRGB(&comps[0], &comps[1], &comps[2], &rgb)
			for i := 0; i < 192; i++ {
				v := uint32(rgb[i])
				dst[i] = v
				s += float64(v)
			}
		}
		return s
	}, func(out [][]uint32) float64 { return stream.ChecksumU32(out[0]) })

	channelFilter := func(name string) stream.Filter {
		return stream.NewFuncFilter(name, 1, 1, 12, func(in, out [][]uint32) {
			for i, v := range in[0] {
				if v > 255 { // condition the channel value back into pixel range
					v = 255
				}
				out[0][i] = v
			}
		})
	}

	rowAssemble := stream.NewFuncFilter("F6-row", 192, 192, 600, func(in, out [][]uint32) {
		copy(out[0], in[0])
	})

	mcusPerRow := cfg.W / 8
	sink := stream.NewSink("F7-out", jpegcodec.CoeffsPerMCU*mcusPerRow)

	n1 := g.Add(dequant)
	n2 := g.Add(idctColor)
	split := g.Add(stream.NewRoundRobinSplitter("F3-split", 1, 1, 1))
	join := g.Add(stream.NewRoundRobinJoiner("F4-join", 1, 1, 1))
	n6 := g.Add(rowAssemble)
	n7 := g.Add(sink)
	if err := g.ChainNodes(src, n1, n2, split); err != nil {
		return nil, err
	}
	if err := g.SplitJoin(split, join,
		[]stream.Filter{channelFilter("F3R")},
		[]stream.Filter{channelFilter("F3G")},
		[]stream.Filter{channelFilter("F3B")},
	); err != nil {
		return nil, err
	}
	if err := g.ChainNodes(join, n6, n7); err != nil {
		return nil, err
	}

	return &Instance{
		Name:      "jpeg",
		Metric:    "PSNR",
		Graph:     g,
		Output:    func() []float64 { return jpegcodec.Raster(sink.Collected(), cfg.W, cfg.H) },
		Reference: w.ref,
		Quality:   psnrQuality,
	}, nil
}

// jpegWorkload draws the test photo, encodes it at cfg.Quality and
// entropy-decodes the bitstream into the coefficient tape; the photo's
// pixels are the reference.
func jpegWorkload(cfg JPEGConfig) (workload, error) {
	img := jpegcodec.TestImage(cfg.W, cfg.H)
	data, err := jpegcodec.Encode(img, cfg.Quality)
	if err != nil {
		return workload{}, err
	}
	cs, err := jpegcodec.DecodeCoeffs(data)
	if err != nil {
		return workload{}, err
	}
	tape := make([]uint32, len(cs.Coeffs))
	for i, c := range cs.Coeffs {
		tape[i] = uint32(c)
	}
	ref := make([]float64, len(img.Pix))
	for i, p := range img.Pix {
		ref[i] = float64(p)
	}
	return workload{tape: tape, ref: ref}, nil
}
