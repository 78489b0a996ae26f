package bench

import (
	"fmt"

	"xcontainers/internal/runtimes"
	"xcontainers/internal/workload"
)

// RunFig5 reproduces Figure 5: the UnixBench microbenchmarks (Execl,
// File Copy, Pipe Throughput, Context Switching, Process Creation) and
// iperf, single and concurrent, on both clouds, normalized to patched
// Docker.
func RunFig5() (*Report, error) {
	tests := workload.AllUnixBenchTests()
	panels, err := matrixCells(func(rt *runtimes.Runtime, concurrent bool) ([]float64, error) {
		ops := make([]float64, len(tests))
		for i, test := range tests {
			s, err := workload.RunUnixBench(rt, test, concurrent)
			if err != nil {
				return nil, err
			}
			ops[i] = s.OpsPS
		}
		return ops, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig5", Title: "Relative microbenchmark performance (Fig. 5)"}
	for _, p := range panels {
		t := Table{
			Name:    fmt.Sprintf("%s %s (relative to patched Docker)", p.cloud, p.mode),
			Columns: append([]string{"Configuration"}, testNames()...),
		}
		for _, r := range p.rows {
			cells := []string{r.name}
			for i := range tests {
				cells = append(cells, Rel(r.v[i], p.base[i]))
			}
			t.Rows = append(t.Rows, cells)
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

func testNames() []string {
	var out []string
	for _, t := range workload.AllUnixBenchTests() {
		out = append(out, string(t))
	}
	return out
}

func init() {
	Register(Experiment{ID: "fig5", Title: "UnixBench + iperf microbenchmarks (Fig. 5)", Run: RunFig5})
}
