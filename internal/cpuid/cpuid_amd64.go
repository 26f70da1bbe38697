package cpuid

var hasAVX2 = probeAVX2()

func probeAVX2() bool
