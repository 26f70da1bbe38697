//go:build ignore

// gen writes the derivative kernels of apply.go for fixed Nq, twice.
// kernels_gen.go unrolls the loops over the contraction index in Go,
// so the pencil being contracted stays in registers and the derivative
// matrix is addressed by constant offsets. kernels_amd64.s is the same
// arithmetic as one AVX2 small matrix product, C = (0 | C) + A·B, four
// output values per register, followed by the AVX2 body of Metric.
// Run with `go generate` from this directory.
//
// Every generated kernel forms each output value from exactly the
// floating-point operations of its generic counterpart in the same
// order — start from zero (or the prior value, for the accumulating
// transposes), add the products in ascending contraction index, one
// rounding per multiply and one per add — so the results are
// bit-identical; kernels_test.go holds them to that.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
)

// sizes are the Nq that get a specialised kernel: polynomial orders 3
// to 7, which covers every case and example in the tree (pb146 runs at
// orders 3-7, RBC at 3, 4 and 7).
var sizes = []int{4, 5, 6, 7, 8}

// axis describes how one derivative direction walks an element:
// pencils start at o*outerStride + i for o < outer and i < inner, and
// step by step along the contraction index.
type axis struct {
	name                            string
	outer, outerStride, inner, step int
}

func axes(nq int) []axis {
	return []axis{
		{name: "R", outer: nq * nq, outerStride: nq, inner: 1, step: 1},   // nq^2 contiguous lines
		{name: "S", outer: nq, outerStride: nq * nq, inner: nq, step: nq}, // per k-plane, nq columns
		{name: "T", outer: 1, inner: nq * nq, step: nq * nq},              // nq^2 columns across planes
	}
}

func main() {
	var b bytes.Buffer
	b.WriteString("// Code generated by go run gen.go; DO NOT EDIT.\n\npackage tensor\n\n")
	fmt.Fprintf(&b, "// generatedSizes lists the nq that have generated kernels.\nvar generatedSizes = %#v\n\n", sizes)

	for a := range axes(0) {
		for _, transpose := range []bool{false, true} {
			fn := "deriv" + axes(0)[a].name
			if transpose {
				fn += "T"
			}
			fmt.Fprintf(&b, "// %sFixed runs the generated %s kernel for nq and reports whether\n// one exists.\n", fn, fn)
			fmt.Fprintf(&b, "func %sFixed(d []float64, nq int, u, out []float64) bool {\n\tswitch nq {\n", fn)
			for _, nq := range sizes {
				np := nq * nq * nq
				fmt.Fprintf(&b, "\tcase %d:\n\t\t%s%d((*[%d]float64)(d), (*[%d]float64)(u), (*[%d]float64)(out))\n", nq, fn, nq, nq*nq, np, np)
			}
			b.WriteString("\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n\n")
			for _, nq := range sizes {
				kernel(&b, fn, axes(nq)[a], nq, transpose)
			}
		}
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		os.Stderr.Write(b.Bytes())
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
	for name, text := range map[string][]byte{"kernels_gen.go": src, "kernels_amd64.s": asm()} {
		if err := os.WriteFile(name, text, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gen:", err)
			os.Exit(1)
		}
	}
}

// kernel emits one fixed-size kernel. Forward: out[i] = 0 + sum_m
// D[i,m] u[m]; transpose: out[i] = out[i] + sum_m D[m,i] u[m], both in
// ascending m along every pencil.
func kernel(b *bytes.Buffer, fn string, ax axis, nq int, transpose bool) {
	fmt.Fprintf(b, "func %s%d(d *[%d]float64, u, out *[%d]float64) {\n", fn, nq, nq*nq, nq*nq*nq)
	indent, base := "\t", ""
	if ax.outer > 1 {
		fmt.Fprintf(b, "%sfor o := 0; o < %d; o += %d {\n", indent, ax.outer*ax.outerStride, ax.outerStride)
		indent, base = indent+"\t", "o"
	}
	if ax.inner > 1 {
		fmt.Fprintf(b, "%sfor i := 0; i < %d; i++ {\n", indent, ax.inner)
		if base != "" {
			base += " + "
		}
		indent, base = indent+"\t", base+"i"
	}
	// Touching the pencil's far end first lets one bounds check cover
	// all of its accesses.
	fmt.Fprintf(b, "%sp := %s\n", indent, base)
	fmt.Fprintf(b, "%s_, _ = u[p+%d], out[p+%d]\n", indent, (nq-1)*ax.step, (nq-1)*ax.step)
	for m := 0; m < nq; m++ {
		fmt.Fprintf(b, "%su%d := u[p+%d]\n", indent, m, m*ax.step)
	}
	for i := 0; i < nq; i++ {
		dst := fmt.Sprintf("out[p+%d]", i*ax.step)
		start := "0"
		if transpose {
			start = dst
		}
		fmt.Fprintf(b, "%s%s = %s", indent, dst, start)
		for m := 0; m < nq; m++ {
			idx := i*nq + m
			if transpose {
				idx = m*nq + i
			}
			fmt.Fprintf(b, " + d[%d]*u%d", idx, m)
		}
		b.WriteString("\n")
	}
	for len(indent) > 1 {
		indent = indent[:len(indent)-1]
		fmt.Fprintf(b, "%s}\n", indent)
	}
	b.WriteString("}\n\n")
}

// asmHeader opens kernels_amd64.s with the lane masks of the tails: a
// tail of t lanes loads its mask 8*(3-t) bytes in.
const asmHeader = `// Code generated by go run gen.go; DO NOT EDIT.

#include "textflag.h"

DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48
`

// asm emits, for every size, the product C = (0 | C) + A·B of an
// nq x nq A with an nq x L B in the two shapes the kernels need:
// mm<nq>planes runs n products with L = nq, C advancing a plane each
// time and A and B by aStep and bStep elements (one of them the fixed
// derivative matrix, step 0); mm<nq>wide runs one with L = nq*nq.
func asm() []byte {
	var b bytes.Buffer
	b.WriteString(asmHeader)
	for _, nq := range sizes {
		for _, planes := range []bool{true, false} {
			L, name, args, frame := nq*nq, "wide", "acc bool", 25
			if planes {
				L, name, args, frame = nq, "planes", "n, aStep, bStep int, acc bool", 49
			}
			fmt.Fprintf(&b, "\n// func mm%d%s(c, a, b *float64, %s)\n", nq, name, args)
			fmt.Fprintf(&b, "TEXT ·mm%d%s(SB), NOSPLIT, $0-%d\n", nq, name, frame)
			b.WriteString("\tMOVQ c+0(FP), DI\n\tMOVQ a+8(FP), SI\n\tMOVQ b+16(FP), DX\n")
			fmt.Fprintf(&b, "\tMOVBLZX acc+%d(FP), AX\n", frame-1)
			if tail := L % 4; tail > 0 {
				fmt.Fprintf(&b, "\tVMOVDQU tailmask<>+%d(SB), Y10\n", 8*(3-tail))
			}
			if planes {
				b.WriteString("\tMOVQ n+24(FP), CX\n\tMOVQ aStep+32(FP), R8\n\tMOVQ bStep+40(FP), R9\n")
				b.WriteString("\tSHLQ $3, R8\n\tSHLQ $3, R9\nloop:\n")
				for col := 0; col < L; col += 4 {
					tile(&b, nq, L, col, min(4, L-col))
				}
				fmt.Fprintf(&b, "\tADDQ $%d, DI\n\tADDQ R8, SI\n\tADDQ R9, DX\n", 8*nq*nq)
			} else {
				fmt.Fprintf(&b, "\tMOVQ $%d, CX\nloop:\n", L/4)
				tile(&b, nq, L, 0, 4)
				b.WriteString("\tADDQ $32, DI\n\tADDQ $32, DX\n")
			}
			b.WriteString("\tDECQ CX\n\tJNE  loop\n")
			if !planes && L%4 > 0 {
				tile(&b, nq, L, 0, L%4)
			}
			b.WriteString("\tVZEROUPPER\n\tRET\n")
		}
	}
	metric(&b)
	return b.Bytes()
}

// metric emits metricPlanes, Metric's loop: four points per iteration,
// then a tail of n mod 4 through the mask at 8*(3-tail) bytes into
// tailmask. SI and R9 address the planes rr, rs, rt and ss, st, tt, R8
// is a plane's length in bytes.
func metric(b *bytes.Buffer) {
	b.WriteString(`
// func metricPlanes(geo, r, s, t *float64, n int)
TEXT ·metricPlanes(SB), NOSPLIT, $0-40
	MOVQ geo+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ s+16(FP), DX
	MOVQ t+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	MOVQ CX, AX
	ANDQ $3, AX
	SHRQ $2, CX
	JEQ  tail
loop:
`)
	metricQuad(b, false)
	b.WriteString(`	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNE  loop
tail:
	TESTQ AX, AX
	JEQ  done
	LEAQ tailmask<>(SB), R10
	NEGQ AX
	VMOVDQU 24(R10)(AX*8), Y10
`)
	metricQuad(b, true)
	b.WriteString("done:\n\tVZEROUPPER\n\tRET\n")
}

// metricQuad emits four points of Metric (fewer through the mask in
// Y10): the gradient into Y0-Y2 and the six planes into Y3-Y8 before
// anything is stored, then output o as (G[o][0]·r + G[o][1]·s) +
// G[o][2]·t in Y9, Y11 and Y12 — each product rounded before it is
// added, as the Go expression does, never fused.
func metricQuad(b *bytes.Buffer, masked bool) {
	load, store := "\tVMOVUPD %s, Y%d\n", "\tVMOVUPD Y%d, %s\n"
	if masked {
		load, store = "\tVMASKMOVPD %s, Y10, Y%d\n", "\tVMASKMOVPD Y%d, Y10, %s\n"
	}
	grad := []string{"(DI)", "(DX)", "(BX)"}
	for i, at := range append(grad, "(SI)", "(SI)(R8*1)", "(SI)(R8*2)", "(R9)", "(R9)(R8*1)", "(R9)(R8*2)") {
		fmt.Fprintf(b, load, at, i)
	}
	out := []int{9, 11, 12}
	for o, row := range [3][3]int{{0, 1, 2}, {1, 3, 4}, {2, 4, 5}} {
		fmt.Fprintf(b, "\tVMULPD Y%d, Y0, Y%d\n", 3+row[0], out[o])
		for term := 1; term < 3; term++ {
			fmt.Fprintf(b, "\tVMULPD Y%d, Y%d, Y13\n\tVADDPD Y13, Y%d, Y%d\n", 3+row[term], term, out[o], out[o])
		}
	}
	for o, at := range grad {
		fmt.Fprintf(b, store, out[o], at)
	}
}

// tile emits lanes (at most four) adjacent columns of the product, all
// nq rows of them: columns col onward of the rows of C (at DI) and B
// (at DX), both L values long; A is at SI and AX says whether C starts
// from its prior content. Row r accumulates in Yr, one output value
// per lane, and takes a[r][m]*b[m][lane] in ascending m as a multiply
// and then an add — never a fused multiply-add, which would round once
// where the contract rounds twice. Fewer than four lanes go through
// the mask in Y10, so no byte outside the rows is read or written.
func tile(b *bytes.Buffer, nq, L, col, lanes int) {
	load, store := "VMOVUPD %d(%s), Y%d", "VMOVUPD Y%d, %d(DI)"
	if lanes < 4 {
		load, store = "VMASKMOVPD %d(%s), Y10, Y%d", "VMASKMOVPD Y%d, Y10, %d(DI)"
	}
	label := fmt.Sprintf("c%dl%d", col, lanes)
	fmt.Fprintf(b, "\tTESTL AX, AX\n\tJEQ  zero%s\n", label)
	for r := 0; r < nq; r++ {
		fmt.Fprintf(b, "\t"+load+"\n", 8*(r*L+col), "DI", r)
	}
	fmt.Fprintf(b, "\tJMP  sum%s\nzero%s:\n", label, label)
	for r := 0; r < nq; r++ {
		fmt.Fprintf(b, "\tVXORPD Y%d, Y%d, Y%d\n", r, r, r)
	}
	fmt.Fprintf(b, "sum%s:\n", label)
	for m := 0; m < nq; m++ {
		fmt.Fprintf(b, "\t"+load+"\n", 8*(m*L+col), "DX", 8)
		for r := 0; r < nq; r++ {
			fmt.Fprintf(b, "\tVBROADCASTSD %d(SI), Y9\n\tVMULPD Y8, Y9, Y9\n\tVADDPD Y9, Y%d, Y%d\n", 8*(r*nq+m), r, r)
		}
	}
	for r := 0; r < nq; r++ {
		fmt.Fprintf(b, "\t"+store+"\n", r, 8*(r*L+col))
	}
}
