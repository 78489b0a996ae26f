package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quantiles returns the quartiles of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), so a reader checking the raw
// values outside Go gets the same numbers. One value is its own
// quartiles; none gives zeros.
func quantiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// series is one metric over the passes of a run.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

func newSeries(unit string, raw []float64) *series {
	q1, med, q3 := quantiles(raw)
	return &series{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(raw), Raw: raw}
}

// spread is the interquartile range as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the
// declared metrics, their units and the bounds compare judges by.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(blob, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// passFailFrac is reported next to the declared end-to-end metrics. It
// is 0 on a healthy run, and a metric declared in BENCHMARK.json must
// never read 0, so the single-workload form carries it as the failed
// and attempted counts instead; any increase is a regression.
const passFailFrac = "pass_fail_frac"

// verdict judges head against base for one end-to-end metric: worse or
// better when the medians differ by more than the bound, within when
// they do not, and unresolved when either side's interquartile range
// is wider than the bound.
func verdict(m metricSpec, base, head *series) string {
	if base.spread() > m.Bound || head.spread() > m.Bound {
		return "unresolved"
	}
	var d float64
	switch {
	case base.Median != 0:
		d = (head.Median - base.Median) / math.Abs(base.Median)
	case head.Median != 0:
		d = math.Inf(int(math.Copysign(1, head.Median)))
	}
	if m.Better == "higher" {
		d = -d
	}
	switch {
	case d > m.Bound:
		return "worse"
	case d < -m.Bound:
		return "better"
	}
	return "within"
}

// failVerdict judges the pass failure share, whose bound is zero.
func failVerdict(base, head float64) string {
	switch {
	case head > base:
		return "worse"
	case head < base:
		return "better"
	}
	return "within"
}

// compareRuns prints one row per (workload, end-to-end metric) present
// in both results files and returns how many rows read worse.
func compareRuns(w io.Writer, spec *benchSpec, base, head *results) int {
	fmt.Fprintf(w, "%-15s %-15s %12s %12s %8s %8s  %s\n",
		"workload", "metric", "base", "head", "base_iqr", "head_iqr", "verdict")
	worse := 0
	row := func(wl, metric string, b, h, biqr, hiqr float64, v string) {
		if v == "worse" {
			worse++
		}
		fmt.Fprintf(w, "%-15s %-15s %12.6g %12.6g %7.1f%% %7.1f%%  %s\n",
			wl, metric, b, h, 100*biqr, 100*hiqr, v)
	}
	for _, hw := range head.Workloads {
		bw := base.workload(hw.Workload)
		if bw == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			b, h := bw.Metrics[m.Name], hw.Metrics[m.Name]
			if b == nil || h == nil {
				continue
			}
			row(hw.Workload, m.Name, b.Median, h.Median, b.spread(), h.spread(), verdict(m, b, h))
		}
		row(hw.Workload, passFailFrac, bw.PassFailFrac, hw.PassFailFrac, 0, 0,
			failVerdict(bw.PassFailFrac, hw.PassFailFrac))
	}
	return worse
}
