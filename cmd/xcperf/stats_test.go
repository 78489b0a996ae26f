package main

import (
	"bytes"
	"strings"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// whose exclusive method extrapolates for very short inputs.
func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3.2, 1.1, 2.5}, 1.1, 2.5, 3.2},
		{[]float64{0.5, 0.25, 0.75, 1, 2}, 0.375, 0.75, 1.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quantiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quantiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSeriesSpread(t *testing.T) {
	s := newSeries("s", []float64{10, 9, 11, 10, 10})
	if s.Median != 10 || s.N != 5 {
		t.Fatalf("median %v n %d, want 10 and 5", s.Median, s.N)
	}
	if got := s.spread(); got != 0.1 {
		t.Errorf("spread = %v, want (10.5-9.5)/10 = 0.1", got)
	}
}

func steady(median float64) *series { return newSeries("s", []float64{median, median, median}) }

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "speed", Better: "higher", Bound: 0.1}
	noisy := newSeries("s", []float64{8, 10, 12})
	for _, c := range []struct {
		name       string
		m          metricSpec
		base, head *series
		want       string
	}{
		{"same", lower, steady(10), steady(10), "within"},
		{"slower within bound", lower, steady(10), steady(10.9), "within"},
		{"slower beyond bound", lower, steady(10), steady(11.5), "worse"},
		{"faster beyond bound", lower, steady(10), steady(8.5), "better"},
		{"higher is better", higher, steady(10), steady(8.5), "worse"},
		{"noisy base", lower, noisy, steady(20), "unresolved"},
		{"noisy head", lower, steady(10), noisy, "unresolved"},
	} {
		if got := verdict(c.m, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if failVerdict(0, 0.2) != "worse" || failVerdict(0.2, 0) != "better" || failVerdict(0, 0) != "within" {
		t.Error("any change in pass_fail_frac must be judged")
	}
}

func TestCompareRuns(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	run := func(wall, fail float64) *results {
		return &results{Workloads: []*workloadResult{{
			Workload: "planet-fleet", PassFailFrac: fail,
			Metrics: map[string]*series{"wall_s": steady(wall)},
		}}}
	}
	var out bytes.Buffer
	if worse := compareRuns(&out, spec, run(10, 0), run(10.2, 0)); worse != 0 {
		t.Errorf("a 2%% change read as %d worse rows:\n%s", worse, out.String())
	}
	out.Reset()
	if worse := compareRuns(&out, spec, run(10, 0), run(12, 0.2)); worse != 2 {
		t.Errorf("slower and failing head gave %d worse rows, want 2:\n%s", worse, out.String())
	}
	if !strings.Contains(out.String(), "planet-fleet    wall_s") {
		t.Errorf("no row per (workload, metric):\n%s", out.String())
	}
}
