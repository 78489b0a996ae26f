package bench

import (
	"fmt"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/syscalls"
)

// The "smp" experiment demonstrates deterministic SMP: four vCPUs of
// one container execute in lockstep quanta on a host worker pool. The
// report is a pure function of the virtual schedule — byte-identical
// for any GOMAXPROCS, which sizes the pool.

// RunSMPDemo runs the four-vCPU lockstep workload and reports per-lane
// architectural results plus the shared-text warm-up statistics.
func RunSMPDemo() (*Report, error) {
	rt, err := runtimes.New(runtimes.Config{
		Kind: runtimes.XContainer, Patched: true, Cloud: runtimes.LocalCluster,
	})
	if err != nil {
		return nil, err
	}
	c, err := rt.NewContainer("smp", 4, false)
	if err != nil {
		return nil, err
	}
	clk := &cycles.Clock{}
	var procs []*runtimes.Proc
	for i := 0; i < 4; i++ {
		a := arch.NewAssembler(arch.UserTextBase)
		a.Loop(300, func(a *arch.Assembler) {
			a.Work(2000)
			a.SyscallN64(uint32(syscalls.Write))
			a.SyscallN(uint32(syscalls.Getpid)) // last: RAX holds the pid
		})
		a.Hlt()
		p, err := rt.StartProcess(c, a.MustAssemble(), clk)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	elapsed, err := rt.RunConcurrent(procs, 0, 1<<40)
	if err != nil {
		return nil, err
	}

	lanes := Table{
		Name:    "Four vCPUs in lockstep quanta (deterministic SMP)",
		Columns: []string{"vCPU", "Instructions", "Vsyscall calls", "getpid", "Halted"},
	}
	var instr uint64
	for i, p := range procs {
		cpu := p.CPU
		instr += cpu.Counters.Instructions
		lanes.Rows = append(lanes.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", cpu.Counters.Instructions),
			fmt.Sprintf("%d", cpu.Counters.VsyscallCalls),
			fmt.Sprintf("%d", cpu.Regs[arch.RAX]),
			yesNo(cpu.Halted),
		})
	}
	ab := rt.Hyper.ABOM.Stats
	sched := Table{
		Name:    "Schedule totals (pure function of the virtual schedule)",
		Columns: []string{"Metric", "Value"},
		Rows: [][]string{
			{"instructions (all lanes)", fmt.Sprintf("%d", instr)},
			{"elapsed virtual time", fmt.Sprintf("%.1f us (slowest lane)", elapsed.Micros())},
			{"syscalls forwarded (traps)", fmt.Sprintf("%d", rt.Hyper.Stats.SyscallsForwarded)},
			{"ABOM sites patched", fmt.Sprintf("%d", ab.Patched7Case1+ab.Patched7Case2+ab.Patched9Phase1)},
			{"ABOM patch races lost", fmt.Sprintf("%d", ab.RacesLost)},
		},
		Note: "Host worker count and GOMAXPROCS change wall-clock speed only: every number above is byte-identical for any parallelism.",
	}
	return &Report{ID: "smp", Title: "Deterministic SMP: parallel vCPUs, identical results", Tables: []Table{lanes, sched}}, nil
}

func init() {
	Register(Experiment{ID: "smp", Title: "Deterministic SMP demonstration (4 vCPUs, lockstep quanta)", Run: RunSMPDemo})
}
