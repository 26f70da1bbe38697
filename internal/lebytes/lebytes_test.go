package lebytes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestMatchesElementLoop: the bulk copies, and the fallback that
// runs where memory order is not wire order, against the per-element
// little-endian loop, at every byte alignment of the frame side.
func TestMatchesElementLoop(t *testing.T) {
	defer func(was bool) { nativeLittle = was }(nativeLittle)
	for _, nativeLittle = range []bool{nativeLittle, false} {
		matchesElementLoop(t)
	}
}

func matchesElementLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		f, q := make([]float64, n), make([]int64, n)
		for i := range f {
			f[i] = math.Float64frombits(rng.Uint64()) // every bit pattern, NaN payloads included
			q[i] = int64(rng.Uint64())
		}
		for off := 0; off < 8; off++ {
			wantF, wantQ := make([]byte, off+8*n), make([]byte, off+8*n)
			for i := range f {
				binary.LittleEndian.PutUint64(wantF[off+8*i:], math.Float64bits(f[i]))
				binary.LittleEndian.PutUint64(wantQ[off+8*i:], uint64(q[i]))
			}
			gotF, gotQ := make([]byte, off+8*n), make([]byte, off+8*n)
			if w := Put(gotF[off:], f); w != 8*n || !bytes.Equal(gotF, wantF) {
				t.Fatalf("Put float64 n=%d off=%d: wrote %d, bytes differ from the loop", n, off, w)
			}
			if w := Put(gotQ[off:], q); w != 8*n || !bytes.Equal(gotQ, wantQ) {
				t.Fatalf("Put int64 n=%d off=%d: wrote %d, bytes differ from the loop", n, off, w)
			}
			backF, backQ := make([]float64, n), make([]int64, n)
			Get(backF, wantF[off:])
			Get(backQ, wantQ[off:])
			for i := range q {
				if math.Float64bits(backF[i]) != math.Float64bits(f[i]) || backQ[i] != q[i] {
					t.Fatalf("Get n=%d off=%d: element %d differs from the loop", n, off, i)
				}
			}
		}
	}
}

// TestView: an aligned wire image on a little-endian host is viewed in
// place; an unaligned one, and any one where memory order is not wire
// order, is copied into the reused destination. Both read the
// elements the per-element loop reads.
func TestView(t *testing.T) {
	defer func(was bool) { nativeLittle = was }(nativeLittle)
	rng := rand.New(rand.NewSource(34))
	words := make([]uint64, 101) // the byte image of words starts on one
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	rng.Read(buf)
	for _, native := range []bool{nativeLittle, false} {
		nativeLittle = native
		for _, n := range []int{0, 1, 100} {
			for off := 0; off < 8; off++ {
				src := buf[off : off+8*n]
				dst := make([]float64, 0, n)
				got, viewed := View(dst, src)
				wantView := native && off == 0 && n > 0
				if viewed != wantView || len(got) != n || got == nil {
					t.Fatalf("native=%v n=%d off=%d: viewed %v, %d elements (nil %v), want viewed %v",
						native, n, off, viewed, len(got), got == nil, wantView)
				}
				if viewed && (&got[0] != (*float64)(unsafe.Pointer(&src[0])) || cap(got) != n) {
					t.Fatalf("n=%d: a view must alias src with no spare capacity", n)
				}
				if !viewed && n > 0 && &got[0] != &dst[:1][0] {
					t.Fatalf("native=%v n=%d off=%d: the copy did not reuse dst", native, n, off)
				}
				for i := range got {
					if math.Float64bits(got[i]) != binary.LittleEndian.Uint64(src[8*i:]) {
						t.Fatalf("native=%v n=%d off=%d: element %d differs from the loop", native, n, off, i)
					}
				}
			}
		}
	}
}

// TestPad: Pad zeroes exactly up to the next word and says where that
// is.
func TestPad(t *testing.T) {
	for off := 0; off < 24; off++ {
		b := bytes.Repeat([]byte{0xAB}, 32)
		end := Pad(b, off)
		if end != Align(off) || end%8 != 0 || end < off || end-off > 7 {
			t.Fatalf("Pad(%d) = %d, Align = %d", off, end, Align(off))
		}
		for i := range b {
			if zero := i >= off && i < end; zero != (b[i] == 0) {
				t.Fatalf("Pad(%d): byte %d is %#x", off, i, b[i])
			}
		}
	}
}
