// Package lebytes moves arrays of eight-byte elements to and from
// their little-endian wire image — the payload of a plain BP05
// variable and the codecs' verbatim form — as one copy where memory
// order already is wire order.
package lebytes

import (
	"encoding/binary"
	"unsafe"
)

// Word is an element type the wire carries as eight little-endian
// bytes.
type Word interface{ float64 | int64 }

// nativeLittle is true where memory order already is wire order.
var nativeLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view is the memory of s as bytes, in native order — the repository's
// one use of unsafe. It aliases s and is only
// ever the source or destination of a copy inside Put and Get.
func view[T Word](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// Put writes the elements of src, little-endian, into dst[:8*len(src)]
// and returns the bytes written.
func Put[T Word](dst []byte, src []T) int {
	v := view(src)
	if nativeLittle {
		return copy(dst[:len(v)], v)
	}
	for i := 0; i < len(v); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.NativeEndian.Uint64(v[i:]))
	}
	return len(v)
}

// Get fills dst from the little-endian elements at src[:8*len(dst)].
func Get[T Word](dst []T, src []byte) {
	v := view(dst)
	if nativeLittle {
		copy(v, src[:len(v)])
		return
	}
	for i := 0; i < len(v); i += 8 {
		binary.NativeEndian.PutUint64(v[i:], binary.LittleEndian.Uint64(src[i:]))
	}
}
