package bench

import (
	"fmt"

	"xcontainers/internal/apps"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/workload"
)

// macroWorkload describes one Fig. 3 panel.
type macroWorkload struct {
	app    func() *apps.App
	driver workload.Driver
	conc   int // generator concurrency (for latency via Little's law)
}

// fig3Workloads are the paper's macrobenchmarks with their default
// Docker-image configurations (nginx:1.13, memcached:1.5.7,
// redis:3.2.11) and client drivers.
func fig3Workloads() []macroWorkload {
	return []macroWorkload{
		{app: apps.Nginx, driver: workload.DriverAB, conc: 50},
		{app: apps.Memcached, driver: workload.DriverMemtier, conc: 50},
		{app: apps.Redis, driver: workload.DriverMemtier, conc: 50},
	}
}

// fig3Cores is the server instance size (c4.2xlarge / GCE custom: 4
// cores, 8 threads).
const fig3Cores = 8

// RunFig3 reproduces Figure 3: NGINX, memcached, and Redis throughput
// and latency relative to patched native Docker, on both clouds, for
// all ten configurations.
func RunFig3() (*Report, error) {
	clouds := []runtimes.Cloud{runtimes.AmazonEC2, runtimes.GoogleGCE}
	// One cell per workload, cloud and configuration, each on its own
	// runtime and application instance.
	type cell struct {
		w   macroWorkload
		cfg runtimes.Config
	}
	var cells []cell
	for _, w := range fig3Workloads() {
		for _, cloud := range clouds {
			for _, cfg := range configMatrix(cloud) {
				cells = append(cells, cell{w, cfg})
			}
		}
	}
	type res struct {
		name      string
		tput, lat float64
	}
	out, err := runCells(len(cells), func(i int) (res, error) {
		c := cells[i]
		rt, err := runtimes.New(c.cfg)
		if err != nil {
			return res{}, err
		}
		lr := workload.ServerLoad{
			Driver: c.w.driver, App: c.w.app(), RT: rt,
			Cores: fig3Cores, Concurrency: c.w.conc,
		}.Run()
		return res{rt.Name(), lr.Throughput, lr.LatencyUS}, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fig3", Title: "Macrobenchmarks: relative throughput and latency (Fig. 3)"}
	for _, w := range fig3Workloads() {
		app := w.app()
		t := Table{
			Name: fmt.Sprintf("%s (%s, driver %s)", app.Name, app.Language, w.driver),
			Columns: []string{
				"Configuration",
				"Amazon req/s", "Amazon rel tput", "Amazon rel latency",
				"Google req/s", "Google rel tput", "Google rel latency",
			},
			Note: "relative values normalized to patched Docker on the same cloud; latency via Little's law at fixed concurrency (lower is better)",
		}
		// Collect per-cloud results keyed by configuration name so both
		// clouds align in one table (Clear Containers only on Google).
		perCloud := map[runtimes.Cloud]map[string]res{}
		var names []string
		seen := map[string]bool{}
		base := map[runtimes.Cloud]res{}
		for _, cloud := range clouds {
			perCloud[cloud] = map[string]res{}
			for _, cfg := range configMatrix(cloud) {
				r := out[0]
				out = out[1:]
				perCloud[cloud][r.name] = r
				if !seen[r.name] {
					seen[r.name] = true
					names = append(names, r.name)
				}
				if cfg.Kind == runtimes.Docker && cfg.Patched {
					base[cloud] = r
				}
			}
		}
		for _, name := range names {
			row := []string{name}
			for _, cloud := range clouds {
				r, ok := perCloud[cloud][name]
				if !ok {
					row = append(row, "n/a", "n/a", "n/a")
					continue
				}
				b := base[cloud]
				row = append(row, F(r.tput), Rel(r.tput, b.tput), Rel(r.lat, b.lat))
			}
			t.Rows = append(t.Rows, row)
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

func init() {
	Register(Experiment{ID: "fig3", Title: "Macrobenchmarks (Fig. 3)", Run: RunFig3})
}
