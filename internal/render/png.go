package render

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
)

// PNGEncoder writes framebuffers as PNG files; its zero value is ready and
// serves one goroutine at a time. Rows take the Up filter and go into one
// IDAT as a zlib stream written here (DESIGN.md, "The PNG encoding, chosen
// once"); alpha 255 everywhere is 8-bit RGB, else RGBA, as image/png
// decides, so a file decodes to the pixels and Go type the stdlib's would.
type PNGEncoder struct {
	file    []byte   // signature, IHDR, IDAT, IEND
	tokens  []uint16 // one block's: a literal byte, or (distance code+1)<<8 | length-3
	blank   []byte   // the all-zero row above the first
	acc     uint64   // bits not yet in file, the oldest lowest
	nacc    uint
	s1, s2  uint64 // the Adler-32 sums
	lit, cl huffman
}

const (
	pngSignature  = "\x89PNG\r\n\x1a\n"
	pngFilterUp   = 2
	pngRGB        = 2 // colour types of the IHDR
	pngRGBA       = 6
	pngBlockBytes = 1 << 16 // filtered bytes of a deflate block's whole rows, one row at least
	adlerMod      = 65521
)

// Encode writes fb to w as one Write call and returns the file size.
func (e *PNGEncoder) Encode(w io.Writer, fb *Framebuffer) (int64, error) {
	if fb.W <= 0 || fb.W > 1<<24 || fb.H <= 0 || len(fb.Color) != 4*fb.W*fb.H { // a row's Adler-32 sums fit 64 bits
		return 0, fmt.Errorf("render: cannot encode a %dx%d framebuffer with %d colour bytes", fb.W, fb.H, len(fb.Color))
	}
	colourType, bpp := byte(pngRGBA), 4
	if opaque(fb.Color) {
		colourType, bpp = pngRGB, 3
	}
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(fb.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(fb.H))
	ihdr[8], ihdr[9] = 8, colourType // bit depth; compression, filter method and interlace stay 0
	out := appendChunk(append(e.file[:0], pngSignature...), "IHDR", ihdr[:])
	// The IDAT: zlib header (deflate, 32 KiB window), blocks, Adler-32.
	idat := len(out)
	e.file = append(out, 0, 0, 0, 0, 'I', 'D', 'A', 'T', 0x78, 0x01)
	stride, rowBytes := 4*fb.W, 1+bpp*fb.W
	rows := max(1, pngBlockBytes/rowBytes)
	e.tokens = slices.Grow(e.tokens[:0], rows*rowBytes) // a token is a byte at least
	e.blank = slices.Grow(e.blank[:0], stride)[:stride] // never written: zeros
	e.s1, e.s2 = 1, 0
	for y, up := 0, e.blank; y < fb.H; y++ {
		cur := fb.Color[y*stride : (y+1)*stride]
		e.deflateRow(cur, up, bpp)
		up = cur
		if y == fb.H-1 || (y+1)%rows == 0 {
			e.writeBlock(uint64((y+1)/fb.H), bpp) // 1 makes the last block final
		}
	}
	for ; e.nacc > 0; e.nacc -= min(e.nacc, 8) {
		e.file = append(e.file, byte(e.acc))
		e.acc >>= 8
	}
	out = binary.BigEndian.AppendUint32(e.file, uint32(e.s2<<16|e.s1))
	binary.BigEndian.PutUint32(out[idat:], uint32(len(out)-idat-8))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[idat+4:]))
	e.file = appendChunk(out, "IEND", nil)
	n, err := w.Write(e.file)
	return int64(n), err
}

// opaque reports whether every alpha byte is 255.
func opaque(color []byte) bool {
	for i := 0; i+8 <= len(color); i += 8 {
		if binary.LittleEndian.Uint64(color[i:])&0xff000000ff000000 != 0xff000000ff000000 {
			return false
		}
	}
	return len(color)%8 == 0 || color[len(color)-1] == 0xff
}

// deflateRow appends a row's tokens and adds its bytes to the Adler-32
// sums. A zero filtered pixel starts a distance-1 run of zeros, which the
// unchanged pixels after it extend (eight bytes compared at a time), the
// literal zeros before it and the next pixel's leading zeros join, and
// n of which add n·s1 to s2 at once. A filtered pixel equal to the last
// starts a distance-bpp match; any other is literal bytes.
func (e *PNGEncoder) deflateRow(cur, up []byte, bpp int) {
	toks, s1, s2 := append(e.tokens, pngFilterUp), e.s1+pngFilterUp, e.s2+e.s1+pngFilterUp
	mask, top := uint32(1)<<(8*bpp)-1, 8*uint(bpp-1) // top: the shift of a pixel's last byte
	filtered := func(x int) uint32 {
		return subBytes(binary.LittleEndian.Uint32(cur[4*x:]), binary.LittleEndian.Uint32(up[4*x:])) & mask
	}
	last, prev, w := uint32(pngFilterUp), uint32(0), len(cur)/4 // the last byte and pixel written
	for x := 0; x < w; {
		f, from := filtered(x), 0 // from: the first of f's bytes still to write
		if f == 0 {
			k := x + 1 // unchanged pixels are zeros, but not all zeros are unchanged in the first row
			for ; k < w && filtered(k) == 0; k++ {
				for k+2 < w && binary.LittleEndian.Uint64(cur[4*k+4:]) == binary.LittleEndian.Uint64(up[4*k+4:]) {
					k += 2
				}
			}
			n := (k - x) * bpp
			if x = k; k < w {
				f = filtered(k)
				from = bits.TrailingZeros32(f) / 8
				n += from
			}
			s2 = (s2 + uint64(n)*s1) % adlerMod
			z := 0 // the run copies the first literal zero before it, or one written now
			for z < len(toks) && toks[len(toks)-1-z] == 0 {
				z++
			}
			if z > 0 {
				toks, n = toks[:len(toks)-z+1], n+z-1
			} else if last != 0 {
				toks, n = append(toks, 0), n-1
			}
			toks, last = appendMatch(toks, n, 0), 0
			if x == w {
				break
			}
		} else if x > 0 && f == prev {
			k := x + 1
			for k < w && filtered(k) == f {
				k++
			}
			toks = appendMatch(toks, (k-x)*bpp, bpp-1)
			for ; x < k; x++ {
				for j := range bpp {
					s1 += uint64(f >> (8 * j) & 0xff)
					s2 += s1
				}
			}
			s1, s2 = s1%adlerMod, s2%adlerMod
			continue
		}
		for j := from; j < bpp; j++ {
			b := f >> (8 * j) & 0xff
			toks = append(toks, uint16(b))
			s1 += uint64(b)
			s2 += s1
		}
		last, prev, x = f>>top, f, x+1
	}
	e.tokens, e.s1, e.s2 = toks, s1%adlerMod, s2%adlerMod
}

// appendMatch appends an n-byte match of distance code dcode in lengths
// of 3 to 258, or as literal zeros if shorter (only zero runs can be).
func appendMatch(toks []uint16, n, dcode int) []uint16 {
	for n >= 3 {
		k := min(n, 258)
		if n-k > 0 && n-k < 3 {
			k = n - 3
		}
		toks, n = append(toks, uint16((dcode+1)<<8|(k-3))), n-k
	}
	for ; n > 0; n-- {
		toks = append(toks, 0)
	}
	return toks
}

// lengthSymbol returns the length symbol of match token t, its extra
// bits and their count (RFC 1951, 3.2.5).
func lengthSymbol(t uint16) (sym, extra uint16, n uint8) {
	v := t & 0xff
	if v < 8 || v == 255 {
		return 257 + min(v, 28), 0, 0
	}
	e := bits.Len16(v) - 3
	return 261 + 4*uint16(e) + v>>e&3, v & (1<<e - 1), uint8(e)
}

var clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// writeBlock empties the token buffer into a dynamic-Huffman block.
func (e *PNGEncoder) writeBlock(bfinal uint64, bpp int) {
	lit, cl := &e.lit, &e.cl
	clear(lit.freq[:])
	clear(cl.freq[:])
	for _, t := range e.tokens {
		if t >= 256 {
			t, _, _ = lengthSymbol(t)
		}
		lit.freq[t]++
	}
	lit.freq[256] = 1 // the end of block; every row's filter byte makes it two symbols
	lit.build(286, 15)
	nlit := 286
	for lit.len[nlit-1] == 0 {
		nlit--
	}

	// The code lengths, distance codes 0 and bpp-1 being 0 and 1; symbol
	// 17 writes 3-10 zeros and 18 11-138, the count in the high byte.
	var seq [286 + 4]uint8
	var buf [len(seq)]uint16
	copy(seq[:], lit.len[:nlit])
	seq[nlit], seq[nlit+bpp-1] = 1, 1
	cls := buf[:0]
	for i, n := 0, nlit+bpp; i < n; {
		l, r := seq[i], 1
		for i+r < n && seq[i+r] == l {
			r++
		}
		i += r
		if l != 0 {
			cls, r = append(cls, uint16(l)), r-1
		}
		for ; l == 0 && r >= 11; r -= min(r, 138) {
			cls = append(cls, 18|uint16(min(r, 138)-11)<<8)
		}
		if l == 0 && r >= 3 {
			cls, r = append(cls, 17|uint16(r-3)<<8), 0
		}
		for ; r > 0; r-- {
			cls = append(cls, uint16(l))
		}
	}
	for _, t := range cls {
		cl.freq[t&0xff]++
	}
	cl.freq[0], cl.freq[18] = max(cl.freq[0], 1), max(cl.freq[18], 1)
	cl.build(19, 7)
	hclen := 19
	for cl.len[clOrder[hclen-1]] == 0 {
		hclen--
	}

	e.putBits(bfinal|2<<1|uint64(nlit-257)<<3|uint64(bpp-1)<<8|uint64(hclen-4)<<13, 17) // BTYPE 2: dynamic
	for _, s := range clOrder[:hclen] {
		e.putBits(uint64(cl.len[s]), 3)
	}
	for _, t := range cls {
		s := t & 0xff
		e.putBits(uint64(cl.code[s]), uint(cl.len[s]))
		if s >= 17 {
			e.putBits(uint64(t>>8), uint(s-17)*4+3) // 3 or 7 bits
		}
	}

	for _, t := range e.tokens {
		if t < 256 {
			e.putBits(uint64(lit.code[t]), uint(lit.len[t]))
			continue
		}
		s, extra, x := lengthSymbol(t)
		l := lit.len[s]
		e.putBits(uint64(lit.code[s])|uint64(extra)<<l|uint64(min(t>>8-1, 1))<<(l+x), uint(l+x+1))
	}
	e.tokens = e.tokens[:0]
	e.putBits(uint64(lit.code[256]), uint(lit.len[256]))
}

// putBits appends the n low bits of b, n at most 32, to the stream.
func (e *PNGEncoder) putBits(b uint64, n uint) {
	e.acc |= b << e.nacc
	if e.nacc += n; e.nacc >= 32 {
		e.file = binary.LittleEndian.AppendUint32(e.file, uint32(e.acc))
		e.acc, e.nacc = e.acc>>32, e.nacc-32
	}
}

// huffman is one alphabet's code for a block: counts in, lengths and
// codes (bit-reversed, as deflate sends them) out.
type huffman struct {
	freq [286]uint32
	len  [286]uint8
	code [286]uint16
}

// build gives the first n symbols, two counted at least, a canonical
// Huffman code of maxLen bits at most: a tree from two queues (symbols by
// count, merged nodes as made), rebuilt on halved counts while too deep.
func (h *huffman) build(n, maxLen int) {
	var sorted [286]uint64 // count<<16 | symbol
	var weight [2 * 286]uint32
	var up [2 * 286]uint16 // a node's parent, then its depth
	leaves := sorted[:0]
	for s, f := range h.freq[:n] {
		if h.len[s] = 0; f > 0 {
			leaves = append(leaves, uint64(f)<<16|uint64(s))
		}
	}
	slices.Sort(leaves)
	m := len(leaves)
	for deepest := maxLen + 1; deepest > maxLen; {
		for i, l := range leaves {
			weight[i] = uint32(l >> 16)
			leaves[i] = (l>>16+1)/2<<16 | l&0xffff // the counts of another try
		}
		next, inner := 0, m
		for k := m; k < 2*m-1; k++ {
			weight[k] = 0
			for range 2 {
				a := inner
				if next < m && (inner == k || weight[next] <= weight[inner]) {
					a, next = next, next+1
				} else {
					inner++
				}
				up[a], weight[k] = uint16(k), weight[k]+weight[a]
			}
		}
		up[2*m-2], deepest = 0, 0
		for k := 2*m - 3; k >= 0; k-- {
			up[k] = up[up[k]] + 1
			deepest = max(deepest, int(up[k]))
		}
	}
	var count, next [16]uint16
	for i, l := range leaves {
		h.len[l&0xffff] = uint8(up[i])
		count[up[i]]++
	}
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range h.len[:n] {
		if l > 0 {
			h.code[s], next[l] = bits.Reverse16(next[l])>>(16-l), next[l]+1
		}
	}
}

// subBytes subtracts b's four bytes from a's, each modulo 256: high
// bits set in a and cleared in b stop borrows, and are then put right.
func subBytes(a, b uint32) uint32 {
	const high = 0x80808080
	return ((a | high) - (b &^ high)) ^ ((a ^ ^b) & high)
}

// appendChunk appends a PNG chunk: length, type, data, CRC.
func appendChunk(out []byte, kind string, data []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
	start := len(out)
	out = append(out, kind...)
	out = append(out, data...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
}

// EncodePNG writes fb as a PNG image and returns its size. Callers that
// encode repeatedly keep a PNGEncoder and pay for its buffers once.
func EncodePNG(w io.Writer, fb *Framebuffer) (int64, error) {
	var e PNGEncoder
	return e.Encode(w, fb)
}
