//go:build ignore

// gen writes kernels_gen.go: the derivative kernels of apply.go with
// the loops over the contraction index unrolled for fixed Nq, so the
// pencil being contracted stays in registers and the derivative matrix
// is addressed by constant offsets. Run with `go generate` from this
// directory.
//
// Every generated kernel forms each output value from exactly the
// floating-point operations of its generic counterpart in the same
// order — start from zero (or the prior value, for the accumulating
// transposes), add the products in ascending contraction index — so
// the results are bit-identical; kernels_test.go holds them to that.
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
	if err := os.WriteFile("kernels_gen.go", src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
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
