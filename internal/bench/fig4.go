package bench

import (
	"fmt"

	"xcontainers/internal/runtimes"
	"xcontainers/internal/workload"
)

// cloudKinds returns the container platforms evaluated in the cloud
// experiments (§5.1's ten configurations). Clear Containers exist only
// where nested hardware virtualization does.
func cloudKinds(cloud runtimes.Cloud) []runtimes.Kind {
	kinds := []runtimes.Kind{
		runtimes.Docker, runtimes.XenContainer, runtimes.XContainer, runtimes.GVisor,
	}
	if cloud.SupportsNestedVirt() {
		kinds = append(kinds, runtimes.ClearContainer)
	}
	return kinds
}

// configMatrix expands kinds × {patched, unpatched} for a cloud.
func configMatrix(cloud runtimes.Cloud) []runtimes.Config {
	var out []runtimes.Config
	for _, k := range cloudKinds(cloud) {
		for _, patched := range []bool{true, false} {
			out = append(out, runtimes.Config{Kind: k, Patched: patched, Cloud: cloud})
		}
	}
	return out
}

// matrixPanel is one cloud and mode of Figs. 4 and 5: one row per
// configuration of configMatrix(cloud), in its order, and the patched
// Docker row's measurement as the baseline.
type matrixPanel[T any] struct {
	cloud runtimes.Cloud
	mode  string // "Single" or "Concurrent"
	base  T
	rows  []matrixRow[T]
}

// matrixRow is one configuration's measurement.
type matrixRow[T any] struct {
	name string // the runtime's name
	v    T
}

// matrixCells measures every configuration of both clouds, single and
// concurrent, each cell on a runtime of its own, and returns the panels
// in table order: Amazon single, Amazon concurrent, then Google.
func matrixCells[T any](measure func(rt *runtimes.Runtime, concurrent bool) (T, error)) ([]matrixPanel[T], error) {
	type cell struct {
		panel      int
		cfg        runtimes.Config
		concurrent bool
	}
	var panels []matrixPanel[T]
	var cells []cell
	for _, cloud := range []runtimes.Cloud{runtimes.AmazonEC2, runtimes.GoogleGCE} {
		for _, concurrent := range []bool{false, true} {
			mode := "Single"
			if concurrent {
				mode = "Concurrent"
			}
			for _, cfg := range configMatrix(cloud) {
				cells = append(cells, cell{len(panels), cfg, concurrent})
			}
			panels = append(panels, matrixPanel[T]{cloud: cloud, mode: mode})
		}
	}
	rows, err := runCells(len(cells), func(i int) (matrixRow[T], error) {
		c := cells[i]
		rt, err := runtimes.New(c.cfg)
		if err != nil {
			return matrixRow[T]{}, err
		}
		v, err := measure(rt, c.concurrent)
		return matrixRow[T]{rt.Name(), v}, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		p := &panels[c.panel]
		p.rows = append(p.rows, rows[i])
		if c.cfg.Kind == runtimes.Docker && c.cfg.Patched {
			p.base = rows[i].v
		}
	}
	return panels, nil
}

// RunFig4 reproduces Figure 4: relative system call throughput
// (UnixBench System Call benchmark), single and concurrent, on both
// clouds, normalized to patched Docker.
func RunFig4() (*Report, error) {
	panels, err := matrixCells(func(rt *runtimes.Runtime, concurrent bool) (float64, error) {
		s, err := workload.RunUnixBench(rt, workload.TestSyscall, concurrent)
		return s.OpsPS, err
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig4", Title: "Relative system call throughput (Fig. 4)"}
	for _, p := range panels {
		t := Table{
			Name:    fmt.Sprintf("%s %s", p.cloud, p.mode),
			Columns: []string{"Configuration", "Syscalls/s", "Relative to Docker"},
		}
		for _, r := range p.rows {
			t.Rows = append(t.Rows, []string{r.name, F(r.v), Rel(r.v, p.base)})
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

func init() {
	Register(Experiment{ID: "fig4", Title: "Raw syscall throughput (Fig. 4)", Run: RunFig4})
}
