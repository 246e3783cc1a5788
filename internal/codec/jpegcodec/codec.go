package jpegcodec

import (
	"encoding/binary"
	"fmt"

	"commguard/internal/codec/bitio"
	"commguard/internal/dsp"
)

// CoeffStream is the entropy-decoded form of a compressed image: quantized
// DCT coefficients in zig-zag order, grouped per MCU as one Y, one Cb and
// one Cr block (4:4:4 sampling). It is the tape the jpeg benchmark's
// source filter feeds into the stream graph.
type CoeffStream struct {
	W, H    int
	Quality int
	// Coeffs holds MCUCount()*192 values: per MCU, 64 Y then 64 Cb then
	// 64 Cr zig-zag coefficients.
	Coeffs []int32
}

// MCUCount returns the number of 8x8 MCUs.
func (c *CoeffStream) MCUCount() int { return (c.W / 8) * (c.H / 8) }

// CoeffsPerMCU is the item count of one MCU on the coefficient tape
// (matching Fig. 2's 192 items per F6 firing).
const CoeffsPerMCU = 192

const magic = 0x434A5047 // "CJPG"

// Encode compresses img at the given quality (1..100).
func Encode(img *Image, quality int) ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("jpegcodec: quality %d out of range", quality)
	}
	lq, cq := QuantTables(quality)
	dcL := newHuffEncoder(dcLumaSpec)
	acL := newHuffEncoder(acLumaSpec)
	dcC := newHuffEncoder(dcChromaSpec)
	acC := newHuffEncoder(acChromaSpec)

	bw := &bitio.Writer{}
	var prevDC [3]int32
	mcuCols, mcuRows := img.W/8, img.H/8
	var comps [3][64]float64
	for my := 0; my < mcuRows; my++ {
		for mx := 0; mx < mcuCols; mx++ {
			extractMCU(img, mx, my, &comps)
			for ci := 0; ci < 3; ci++ {
				block := comps[ci]
				dsp.DCT2D(&block)
				quant := &lq
				dc, ac := dcL, acL
				if ci > 0 {
					quant = &cq
					dc, ac = dcC, acC
				}
				var zz [64]int32
				for i := 0; i < 64; i++ {
					v := block[ZigZag[i]] / float64(quant[ZigZag[i]])
					zz[i] = int32(roundHalfAway(v))
				}
				encodeBlock(bw, &zz, prevDC[ci], dc, ac)
				prevDC[ci] = zz[0]
			}
		}
	}

	header := make([]byte, 16)
	binary.BigEndian.PutUint32(header[0:], magic)
	binary.BigEndian.PutUint32(header[4:], uint32(img.W))
	binary.BigEndian.PutUint32(header[8:], uint32(img.H))
	binary.BigEndian.PutUint32(header[12:], uint32(quality))
	return append(header, bw.Flush()...), nil
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}

// extractMCU converts the 8x8 pixel region (mx, my) into level-shifted
// Y, Cb, Cr blocks.
func extractMCU(img *Image, mx, my int, comps *[3][64]float64) {
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			pr, pg, pb := img.At(mx*8+c, my*8+r)
			y, cb, cr := RGBToYCbCr(pr, pg, pb)
			comps[0][r*8+c] = y - 128
			comps[1][r*8+c] = cb - 128
			comps[2][r*8+c] = cr - 128
		}
	}
}

// encodeBlock writes one zig-zag block with JPEG DC-differential and AC
// run-length Huffman coding.
func encodeBlock(bw *bitio.Writer, zz *[64]int32, prevDC int32, dc, ac *huffEncoder) {
	diff := zz[0] - prevDC
	size := bitSize(diff)
	bw.WriteBits(dc.code[size], int(dc.size[size]))
	if size > 0 {
		bw.WriteBits(encodeMagnitude(diff, size), size)
	}
	run := 0
	for i := 1; i < 64; i++ {
		if zz[i] == 0 {
			run++
			continue
		}
		for run > 15 {
			bw.WriteBits(ac.code[0xF0], int(ac.size[0xF0])) // ZRL
			run -= 16
		}
		s := bitSize(zz[i])
		sym := uint8(run<<4) | uint8(s)
		//repolint:ignore CM002 sym is a uint8 indexing 256-entry code tables; total by construction
		bw.WriteBits(ac.code[sym], int(ac.size[sym]))
		bw.WriteBits(encodeMagnitude(zz[i], s), s)
		run = 0
	}
	if run > 0 {
		bw.WriteBits(ac.code[0x00], int(ac.size[0x00])) // EOB
	}
}

// DecodeCoeffs entropy-decodes a compressed image to its quantized
// coefficient tape.
func DecodeCoeffs(data []byte) (*CoeffStream, error) {
	if len(data) < 16 || binary.BigEndian.Uint32(data) != magic {
		return nil, fmt.Errorf("jpegcodec: bad header")
	}
	w := int(binary.BigEndian.Uint32(data[4:]))
	h := int(binary.BigEndian.Uint32(data[8:]))
	quality := int(binary.BigEndian.Uint32(data[12:]))
	if w <= 0 || h <= 0 || w%8 != 0 || h%8 != 0 || w > 1<<15 || h > 1<<15 {
		return nil, fmt.Errorf("jpegcodec: bad dimensions %dx%d", w, h)
	}
	cs := &CoeffStream{W: w, H: h, Quality: quality}
	cs.Coeffs = make([]int32, 0, cs.MCUCount()*CoeffsPerMCU)

	br := bitio.NewReader(data[16:])
	dcL := newHuffDecoder(dcLumaSpec)
	acL := newHuffDecoder(acLumaSpec)
	dcC := newHuffDecoder(dcChromaSpec)
	acC := newHuffDecoder(acChromaSpec)
	var prevDC [3]int32
	for m := 0; m < cs.MCUCount(); m++ {
		for ci := 0; ci < 3; ci++ {
			dc, ac := dcL, acL
			if ci > 0 {
				dc, ac = dcC, acC
			}
			var zz [64]int32
			if err := decodeBlock(br, &zz, &prevDC[ci], dc, ac); err != nil {
				return nil, fmt.Errorf("jpegcodec: MCU %d comp %d: %w", m, ci, err)
			}
			cs.Coeffs = append(cs.Coeffs, zz[:]...)
		}
	}
	return cs, nil
}

func decodeBlock(br *bitio.Reader, zz *[64]int32, prevDC *int32, dc, ac *huffDecoder) error {
	size, err := dc.decode(br)
	if err != nil {
		return err
	}
	bits, err := br.ReadBits(int(size))
	if err != nil {
		return err
	}
	*prevDC += decodeMagnitude(bits, int(size))
	zz[0] = *prevDC
	for i := 1; i < 64; {
		sym, err := ac.decode(br)
		if err != nil {
			return err
		}
		if sym == 0x00 { // EOB
			break
		}
		if sym == 0xF0 { // ZRL
			i += 16
			continue
		}
		run := int(sym >> 4)
		s := int(sym & 0x0F)
		i += run
		if i >= 64 {
			return fmt.Errorf("run overflows block")
		}
		bits, err := br.ReadBits(s)
		if err != nil {
			return err
		}
		zz[i] = decodeMagnitude(bits, s)
		i++
	}
	return nil
}

// DequantizeBlock converts one zig-zag quantized block into a natural-order
// frequency block (the F1 stage of the decode pipeline).
func DequantizeBlock(zz []int32, quant *[64]int, out *[64]float64) {
	for i := 0; i < 64; i++ {
		out[ZigZag[i]] = float64(zz[i]) * float64(quant[ZigZag[i]])
	}
}

// ReconstructBlock inverts the DCT and the level shift for one component
// block (the F2 stage).
func ReconstructBlock(freq *[64]float64) {
	dsp.IDCT2D(freq)
	for i := range freq {
		freq[i] += 128
	}
}

// MCUToRGB converts three reconstructed component blocks into 64 RGB
// pixels, interleaved R,G,B (the color-conversion stage).
func MCUToRGB(y, cb, cr *[64]float64, out *[192]uint8) {
	for i := 0; i < 64; i++ {
		r, g, b := YCbCrToRGB(y[i], cb[i], cr[i])
		out[3*i], out[3*i+1], out[3*i+2] = r, g, b
	}
}

// A decoded MCU is mcuSide pixel rows of mcuRowItems interleaved R,G,B
// items, CoeffsPerMCU items in all; MCUs tile the image in row-major order.
const (
	mcuSide     = 8
	mcuRowItems = 3 * mcuSide
)

// PlaceMCU writes 64 interleaved-RGB pixels into the image at MCU index m
// (row-major MCU order).
func PlaceMCU(img *Image, m int, rgb *[192]uint8) {
	mcuCols := img.W / mcuSide
	mx, my := m%mcuCols, m/mcuCols
	for r := 0; r < mcuSide; r++ {
		for c := 0; c < mcuSide; c++ {
			i := 3 * (r*mcuSide + c)
			img.Set(mx*mcuSide+c, my*mcuSide+r, rgb[i], rgb[i+1], rgb[i+2])
		}
	}
}

// Raster lays a tape of decoded MCUs (CoeffsPerMCU interleaved-RGB items
// each, in PlaceMCU's order) out as the w x h image's interleaved-RGB
// pixels, one float per byte: each MCU row's mcuRowItems items are copied
// to their place in one pass, clamped to 255. Pixels past a short tape stay
// 0, and items past the image are ignored.
func Raster(tape []uint32, w, h int) []float64 {
	pix := make([]float64, 3*w*h)
	tape = tape[:min(len(tape), len(pix))]
	mcuCols := w / mcuSide
	for src := 0; src < len(tape); src += mcuRowItems {
		m, r := src/CoeffsPerMCU, src/mcuRowItems%mcuSide
		x, y := m%mcuCols*mcuSide, m/mcuCols*mcuSide+r
		seg := tape[src:min(src+mcuRowItems, len(tape))]
		dst := pix[3*(y*w+x):][:len(seg)]
		for i, v := range seg {
			dst[i] = float64(min(v, 255))
		}
	}
	return pix
}

// Decode is the monolithic reference decoder: the exact computation the
// stream pipeline performs, in one call.
func Decode(data []byte) (*Image, error) {
	cs, err := DecodeCoeffs(data)
	if err != nil {
		return nil, err
	}
	return DecodeFromCoeffs(cs)
}

// DecodeFromCoeffs reconstructs the image from a coefficient tape.
func DecodeFromCoeffs(cs *CoeffStream) (*Image, error) {
	if len(cs.Coeffs) != cs.MCUCount()*CoeffsPerMCU {
		return nil, fmt.Errorf("jpegcodec: coefficient tape length %d, want %d",
			len(cs.Coeffs), cs.MCUCount()*CoeffsPerMCU)
	}
	lq, cq := QuantTables(cs.Quality)
	img := NewImage(cs.W, cs.H)
	var comps [3][64]float64
	var rgb [192]uint8
	for m := 0; m < cs.MCUCount(); m++ {
		base := m * CoeffsPerMCU
		for ci := 0; ci < 3; ci++ {
			quant := &lq
			if ci > 0 {
				quant = &cq
			}
			DequantizeBlock(cs.Coeffs[base+64*ci:base+64*ci+64], quant, &comps[ci])
			ReconstructBlock(&comps[ci])
		}
		MCUToRGB(&comps[0], &comps[1], &comps[2], &rgb)
		PlaceMCU(img, m, &rgb)
	}
	return img, nil
}
