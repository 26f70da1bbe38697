// Package cpuid is the one processor probe of the vector kernels in
// tensor, codec and sensei. Each of those packages keeps its Go loop
// next to its assembly and reads AVX2 at every call to choose between
// them; tests switch every package at once with Use.
package cpuid

// AVX2 selects the assembly kernels: true when the CPU has AVX2 and the
// OS saves the YMM state, decided once from CPUID. Only Use changes it.
var AVX2 = hasAVX2

// Paths lists the kernel paths this machine can take: "avx2" when the
// CPU has it, then "go".
func Paths() []string {
	if hasAVX2 {
		return []string{"avx2", "go"}
	}
	return []string{"go"}
}

// Use switches every kernel to path ("avx2" or "go") until tb's
// cleanups run. It must not race with a running kernel: call it before
// starting the goroutines that use the kernels.
func Use(tb interface{ Cleanup(func()) }, path string) {
	prev := AVX2
	AVX2 = path == "avx2" && hasAVX2
	tb.Cleanup(func() { AVX2 = prev })
}
