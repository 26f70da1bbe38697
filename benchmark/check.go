package main

import (
	"encoding/json"
	"fmt"
	"image"
	"image/png"
	"math"
	"os"
	"path/filepath"
)

// checkOrdinals verifies exactly-once in-order delivery of ordinals
// 1..want at one consumer and returns the ordinals that failed: lost,
// duplicated, or out of order.
func checkOrdinals(seen []int64, want int) (bad map[int64]string) {
	bad = map[int64]string{}
	count := make(map[int64]int, len(seen))
	var prev int64
	for _, ord := range seen {
		count[ord]++
		if ord <= prev {
			bad[ord] = "out of order"
		}
		if ord > prev {
			prev = ord
		}
	}
	for ord := int64(1); ord <= int64(want); ord++ {
		switch n := count[ord]; {
		case n == 0:
			bad[ord] = "lost"
		case n > 1:
			bad[ord] = "duplicated"
		}
	}
	for ord := range count {
		if ord < 1 || ord > int64(want) {
			bad[ord] = "never published"
		}
	}
	return bad
}

// rgbaPixels exposes the 8-bit RGBA bytes of a decoded PNG (the
// encoder writes opaque framebuffers as RGB, which decode to RGBA, and
// anything else as NRGBA).
func rgbaPixels(img image.Image) []uint8 {
	switch m := img.(type) {
	case *image.RGBA:
		return m.Pix
	case *image.NRGBA:
		return m.Pix
	}
	return nil
}

// decodePNG reads an image file and counts its covered pixels: the
// framebuffer clears to opaque black, so any other colour is geometry.
func decodePNG(path string) (img image.Image, covered int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	img, err = png.Decode(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	pix := rgbaPixels(img)
	if pix == nil {
		return nil, 0, fmt.Errorf("%s: unexpected pixel format %T", filepath.Base(path), img)
	}
	for i := 0; i+3 < len(pix); i += 4 {
		if pix[i]|pix[i+1]|pix[i+2] != 0 {
			covered++
		}
	}
	return img, covered, nil
}

// checkImages verifies that every ordinal 1..n has one decodable,
// non-empty PNG per pipeline pattern in dir, and returns the ordinals
// whose output is missing or broken.
func checkImages(dir string, patterns []string, n int) (bad map[int64]string) {
	bad = map[int64]string{}
	for ord := 1; ord <= n; ord++ {
		for _, pat := range patterns {
			_, covered, err := decodePNG(filepath.Join(dir, fmt.Sprintf(pat, ord)))
			switch {
			case err != nil:
				bad[int64(ord)] = err.Error()
			case covered == 0:
				bad[int64(ord)] = fmt.Sprintf(pat, ord) + ": empty image"
			}
		}
	}
	return bad
}

// imageMismatch is the share of pixels on which two decoded PNGs
// differ.
func imageMismatch(a, b image.Image) float64 {
	pa, pb := rgbaPixels(a), rgbaPixels(b)
	if a.Bounds() != b.Bounds() || len(pa) != len(pb) || len(pa) == 0 {
		return 1
	}
	var diff int
	for i := 0; i+3 < len(pa); i += 4 {
		if pa[i] != pb[i] || pa[i+1] != pb[i+1] || pa[i+2] != pb[i+2] {
			diff++
		}
	}
	return float64(diff) / float64(len(pa)/4)
}

// compositeTolerance is the share of pixels a through-mesh composite
// may differ from a single-rank render of the same data. Where two
// blocks' triangles land at equal depth on their shared face, a
// single z-buffer keeps the first drawn and binary swap keeps the
// local rank's, so a thin seam of pixels can take either colour.
const compositeTolerance = 0.005

// relDiff is |a-b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// goldenTolerance bounds the relative drift of the pinned solver
// diagnostics.
const goldenTolerance = 1e-6

// goldenFile holds the seed-1 reference diagnostics per workload,
// keyed by the sizes string they were taken at.
const goldenFile = "benchmark/testdata/golden.json"

type goldenEntry struct {
	Sizes       string      `json:"sizes"`
	Ordinal     int         `json:"ordinal"`
	Diagnostics diagnostics `json:"diagnostics"`
}

func readGolden() (map[string]goldenEntry, error) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, err
	}
	out := map[string]goldenEntry{}
	return out, json.Unmarshal(raw, &out)
}

// checkGolden compares (or, with -update-golden, rewrites) the pinned
// diagnostics of one workload. Only seed 1 at the pinned sizes is
// compared; other seeds and the smoke scale only need finite values.
func checkGolden(cfg *runConfig, sizes string, ordinal int, got diagnostics) error {
	if cfg.seed != 1 || cfg.smoke {
		return nil
	}
	all, err := readGolden()
	if err != nil && !updateGolden {
		return fmt.Errorf("golden: %w", err)
	}
	if updateGolden {
		if all == nil {
			all = map[string]goldenEntry{}
		}
		all[cfg.workload] = goldenEntry{Sizes: sizes, Ordinal: ordinal, Diagnostics: got}
		raw, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(goldenFile, append(raw, '\n'), 0o644)
	}
	want, ok := all[cfg.workload]
	if !ok || want.Sizes != sizes || want.Ordinal != ordinal {
		return fmt.Errorf("golden: no reference for %s at %s ordinal %d (run -update-golden)", cfg.workload, sizes, ordinal)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"kinetic_energy", got.KineticEnergy, want.Diagnostics.KineticEnergy},
		{"divergence_l2", got.DivergenceL2, want.Diagnostics.DivergenceL2},
		{"max_velocity", got.MaxVelocity, want.Diagnostics.MaxVelocity},
		{"scalar_flux", got.ScalarFlux, want.Diagnostics.ScalarFlux},
	}
	for _, p := range pairs {
		if d := relDiff(p.got, p.want); d > goldenTolerance {
			return fmt.Errorf("golden: %s = %.12g, pinned %.12g (rel %.2g > %.0g)", p.name, p.got, p.want, d, goldenTolerance)
		}
	}
	return nil
}

// histogramResult is one delivered (or reference) histogram.
type histogramResult struct {
	lo, hi float64
	counts []int64
}

// histogramsEqual compares a delivered histogram with its reference.
// bound 0 demands exact equality. With a lossy bound, the range may
// move by the bound, the total must match, and counts may shift only
// by the values that sit within reach of a bin edge (edgeBand, counted
// on the reference data).
func histogramsEqual(got, ref histogramResult, bound float64, edgeBand int64) error {
	if len(got.counts) != len(ref.counts) {
		return fmt.Errorf("%d bins, reference has %d", len(got.counts), len(ref.counts))
	}
	if math.Abs(got.lo-ref.lo) > bound || math.Abs(got.hi-ref.hi) > bound {
		return fmt.Errorf("range [%g,%g], reference [%g,%g]", got.lo, got.hi, ref.lo, ref.hi)
	}
	var moved, totalGot, totalRef int64
	for i := range got.counts {
		d := got.counts[i] - ref.counts[i]
		if d < 0 {
			d = -d
		}
		moved += d
		totalGot += got.counts[i]
		totalRef += ref.counts[i]
	}
	if totalGot != totalRef {
		return fmt.Errorf("%d values, reference has %d", totalGot, totalRef)
	}
	// A value that changes bin leaves one and enters another.
	if moved > 2*edgeBand {
		return fmt.Errorf("%d counts moved, at most %d may", moved, 2*edgeBand)
	}
	return nil
}
