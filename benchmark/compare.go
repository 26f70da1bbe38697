package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the contract's spread).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// interpolatedMedian is the statistics.median of v.
func interpolatedMedian(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := interpolatedMedian(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// loadResults reads one result file, or every result file of a
// directory, and groups the metric values by workload.
func loadResults(path string) (map[string]map[string][]float64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		if strings.HasSuffix(f, "-spans.json") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark result file", f)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		failed := 0.0
		if r.Attempted > 0 {
			failed = float64(r.Failed) / float64(r.Attempted)
		}
		out[r.Workload]["failed/attempted"] = append(out[r.Workload]["failed/attempted"], failed)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// verdict judges one bounded metric: old and new are the runs of the
// parent and of the change.
func verdict(d metricDef, old, new []float64) string {
	mo, mn := interpolatedMedian(old), interpolatedMedian(new)
	if mo == 0 {
		return "no base"
	}
	better := func(a, b float64) bool { // a reads better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	worse := (mn - mo) / mo
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(spreadShare(old), spreadShare(new))
	if spread > d.Bound {
		// Too noisy to call, unless the two sets do not even overlap.
		all := true
		for _, n := range new {
			for _, o := range old {
				all = all && better(n, o)
			}
		}
		if all {
			return "better"
		}
		return fmt.Sprintf("unresolved (spread %.1f%% > bound)", 100*spread)
	}
	switch q1, q3 := quartiles(old); {
	case worse > d.Bound:
		return "REGRESSED"
	case better(mn, mo) && len(old) > 1 && math.Abs(mn-mo) > q3-q1:
		return "better"
	}
	return "within bound"
}

// compareResults prints, per workload and metric, both medians, the
// ratio new/old (base: old), the bound and a verdict, and reports
// whether anything regressed. End-to-end metrics are judged against
// their bounds; per-layer metrics are listed without a verdict.
func compareResults(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	bounded := map[string]metricDef{}
	for _, d := range endToEnd {
		bounded[d.Name] = d
	}
	for _, wl := range sortedKeys(old) {
		if cur[wl] == nil {
			fmt.Fprintf(w, "%s: only in %s\n", wl, oldPath)
			continue
		}
		fmt.Fprintf(w, "\n%s\n%-40s %14s %14s %9s %7s  %s\n", wl, "metric", "old median", "new median", "new/old", "bound", "verdict")
		for _, name := range sortedKeys(old[wl]) {
			o, n := old[wl][name], cur[wl][name]
			if len(n) == 0 {
				continue
			}
			mo, mn := interpolatedMedian(o), interpolatedMedian(n)
			ratio := "-"
			if mo != 0 {
				ratio = fmt.Sprintf("%.4f", mn/mo)
			}
			bound, v := "-", "-"
			if d, ok := bounded[name]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				v = verdict(d, o, n)
				regressed = regressed || v == "REGRESSED"
			} else if name == "failed/attempted" && mn > mo {
				v = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-40s %14.6g %14.6g %9s %7s  %s (n=%d,%d)\n", name, mo, mn, ratio, bound, v, len(o), len(n))
		}
	}
	return regressed, nil
}
