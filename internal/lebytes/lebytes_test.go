package lebytes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
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
