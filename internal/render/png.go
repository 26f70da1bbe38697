package render

import (
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// PNGEncoder writes framebuffers as PNG files and keeps everything an
// encode needs between calls: the deflate state (Reset, not rebuilt),
// the filtered-row buffer and the file image. The zero value is ready;
// an encoder serves one goroutine at a time and must not be copied
// after first use.
//
// The encoding is fixed, chosen once from the measured table in
// DESIGN.md ("Render hot path"): every row takes the Up filter and the
// stream is deflated at zlib.BestSpeed into a single IDAT chunk. The
// colour type follows the test image/png makes: a framebuffer whose
// alpha is 255 everywhere is written as 8-bit RGB, anything else as
// 8-bit RGBA, so a file decodes to exactly the pixels (and the Go image
// type) the standard encoder's would.
type PNGEncoder struct {
	zw    *zlib.Writer
	file  fileBuffer // signature, IHDR, IDAT, IEND
	row   []byte     // filter byte, one filtered row, one spare byte
	blank []byte     // the all-zero row above the first
}

// fileBuffer is the io.Writer the deflate stream appends to.
type fileBuffer struct{ b []byte }

func (f *fileBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

const (
	pngSignature = "\x89PNG\r\n\x1a\n"
	pngFilterUp  = 2
	pngRGB       = 2 // colour types of the IHDR
	pngRGBA      = 6
)

// Encode writes fb to w as one Write call and returns the file size.
func (e *PNGEncoder) Encode(w io.Writer, fb *Framebuffer) (int64, error) {
	if fb.W <= 0 || fb.H <= 0 || len(fb.Color) != 4*fb.W*fb.H {
		return 0, fmt.Errorf("render: cannot encode a %dx%d framebuffer with %d colour bytes", fb.W, fb.H, len(fb.Color))
	}
	colourType, bpp := byte(pngRGB), 3
	for i := 3; i < len(fb.Color); i += 4 {
		if fb.Color[i] != 0xff {
			colourType, bpp = pngRGBA, 4
			break
		}
	}

	out := append(e.file.b[:0], pngSignature...)
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(fb.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(fb.H))
	ihdr[8], ihdr[9] = 8, colourType // bit depth; compression, filter method and interlace stay 0
	out = appendChunk(out, "IHDR", ihdr[:])

	// The IDAT payload is deflated straight into the file image; its
	// length and checksum are filled in once the stream is closed.
	idat := len(out)
	e.file.b = append(out, 0, 0, 0, 0, 'I', 'D', 'A', 'T')
	if e.zw == nil {
		zw, err := zlib.NewWriterLevel(&e.file, zlib.BestSpeed)
		if err != nil {
			return 0, err
		}
		e.zw = zw
	} else {
		e.zw.Reset(&e.file)
	}
	// A row is filtered four bytes at a time (see subBytes). An RGB
	// pixel keeps three of them: the fourth lands where the next pixel
	// then writes, and past the end of the last pixel in a spare byte.
	e.row = slices.Grow(e.row[:0], 1+bpp*fb.W+1)[:1+bpp*fb.W+1]
	e.row[0] = pngFilterUp
	stride := 4 * fb.W
	if len(e.blank) != stride {
		e.blank = make([]byte, stride)
	}
	up, dst := e.blank, e.row[1:]
	for y := 0; y < fb.H; y++ {
		cur := fb.Color[y*stride : (y+1)*stride]
		for x := 0; x < fb.W; x++ {
			d := subBytes(binary.LittleEndian.Uint32(cur[4*x:]), binary.LittleEndian.Uint32(up[4*x:]))
			binary.LittleEndian.PutUint32(dst[bpp*x:], d)
		}
		if _, err := e.zw.Write(e.row[:1+bpp*fb.W]); err != nil {
			return 0, err
		}
		up = cur
	}
	if err := e.zw.Close(); err != nil {
		return 0, err
	}
	out = e.file.b
	binary.BigEndian.PutUint32(out[idat:], uint32(len(out)-idat-8))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[idat+4:]))
	out = appendChunk(out, "IEND", nil)
	e.file.b = out

	n, err := w.Write(out)
	return int64(n), err
}

// subBytes subtracts the four bytes of b from those of a, each modulo
// 256: the high bit of every byte is set in a and cleared in b so that
// no byte borrows from its neighbour, and then put right.
func subBytes(a, b uint32) uint32 {
	const high = 0x80808080
	return ((a | high) - (b &^ high)) ^ ((a ^ ^b) & high)
}

// appendChunk appends one PNG chunk: length, type, data, CRC of type
// and data.
func appendChunk(out []byte, kind string, data []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
	start := len(out)
	out = append(out, kind...)
	out = append(out, data...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
}

// EncodePNG writes the framebuffer as a PNG image and returns the
// encoded size in bytes. Callers that encode repeatedly keep a
// PNGEncoder instead and pay for its buffers once.
func EncodePNG(w io.Writer, fb *Framebuffer) (int64, error) {
	var e PNGEncoder
	return e.Encode(w, fb)
}
