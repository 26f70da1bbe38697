// Package lebytes moves arrays of eight-byte elements to and from
// their little-endian wire image — the payload of a plain BP06
// variable and the codecs' verbatim form — as one copy where memory
// order already is wire order, or as no copy at all (View) where the
// wire image is also word-aligned in memory. Align and Pad are the
// word grid BP06 records sit on.
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

// view is the memory of s as bytes, in native order — one of the
// repository's two uses of unsafe (View is the other). It aliases s
// and is only ever the source or destination of a copy inside Put and
// Get.
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

// View returns the len(src)/8 little-endian elements of src. Where
// memory order is wire order and src starts on a word, the result is
// src itself, retyped (viewed true): it has no capacity past its
// length and is valid exactly as long as src's bytes are. Otherwise
// the elements are copied into dst, reused when its capacity allows,
// and viewed is false. dst must not alias src. An empty src gives an
// empty, non-nil slice.
func View[T Word](dst []T, src []byte) (s []T, viewed bool) {
	n := len(src) / 8
	if n > 0 && nativeLittle && uintptr(unsafe.Pointer(unsafe.SliceData(src)))%8 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(src))), n), true
	}
	if dst == nil || cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	Get(dst, src)
	return dst, false
}

// Align rounds n up to a whole number of eight-byte words.
func Align(n int) int { return (n + 7) &^ 7 }

// Pad zeroes dst[off:Align(off)], the padding that brings a write
// position to the next word, and returns Align(off).
func Pad(dst []byte, off int) int {
	end := Align(off)
	clear(dst[off:end])
	return end
}
