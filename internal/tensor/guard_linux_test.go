package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n values in a fresh mapping with an inaccessible
// page on either side, flush against the one after them (atEnd) or
// the one before.
func guarded(tb testing.TB, n int, atEnd bool) []float64 {
	page := syscall.Getpagesize()
	data := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { syscall.Munmap(mem) }) //nolint:errcheck // test teardown
	for _, guard := range [][]byte{mem[:page], mem[page+data:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			tb.Fatal(err)
		}
	}
	off := page
	if atEnd {
		off = page + data - n*8
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[off])), n)
}

func init() {
	for _, atEnd := range []bool{true, false} {
		name := "guard page before"
		if atEnd {
			name = "guard page after"
		}
		operandLayouts = append(operandLayouts, operandLayout{name,
			func(tb testing.TB, n int) []float64 { return guarded(tb, n, atEnd) }})
	}
}
