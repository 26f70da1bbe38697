//go:build !amd64

package cpuid

// hasAVX2 is never set off amd64: every kernel runs its Go loop.
const hasAVX2 = false
