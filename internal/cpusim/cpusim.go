// Package cpusim is the flow-level CPU and scheduling simulator: it
// schedules container workloads onto physical CPUs through either a
// flat host scheduler (Docker: the Linux kernel sees every process) or
// a hierarchical one (X-Containers and VMs: the hypervisor sees one
// vCPU per instance, the guest kernel schedules its own processes).
//
// The Fig. 8 scalability mechanism lives here: with N containers of 4
// processes each, the flat scheduler manages 4N entities whose
// timeslices shrink as load grows (CFS-style latency targeting), while
// the hierarchical scheduler keeps N long-timeslice vCPUs at the host
// level and confines the frequent, cheap switches to inside each guest.
package cpusim

import (
	"fmt"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// Task is one closed-loop worker process: it always has a next request
// to serve (the load generator keeps its connections saturated), each
// request costing ReqCycles of CPU time.
type Task struct {
	ContainerID int
	ReqCycles   cycles.Cycles
	Completed   uint64
	remaining   cycles.Cycles
}

// VCPU is one host-schedulable entity. Hierarchical runtimes put all of
// a container's tasks on its vCPUs; flat runtimes wrap each task in its
// own single-task entity.
type VCPU struct {
	ContainerID int
	Tasks       []*Task
	guestIdx    int
	// guestRemaining tracks the current task's guest timeslice.
	guestRemaining cycles.Cycles
}

// SchedParams describes one scheduling level.
type SchedParams struct {
	// TargetLatency and MinGranularity implement CFS-style timeslice
	// shrinking: slice = max(MinGranularity, TargetLatency/runnable).
	TargetLatency  cycles.Cycles
	MinGranularity cycles.Cycles
}

// Slice computes the timeslice with n runnable entities.
func (p SchedParams) Slice(n int) cycles.Cycles {
	if n < 1 {
		n = 1
	}
	s := p.TargetLatency / cycles.Cycles(n)
	if s < p.MinGranularity {
		s = p.MinGranularity
	}
	return s
}

// CFSParams approximates Linux CFS (6 ms target, 0.75 ms minimum).
func CFSParams() SchedParams {
	return SchedParams{
		TargetLatency:  cycles.FromSeconds(0.006),
		MinGranularity: cycles.FromSeconds(0.00075),
	}
}

// CreditParams approximates the Xen credit scheduler's 30 ms slice.
func CreditParams() SchedParams {
	return SchedParams{
		TargetLatency:  cycles.FromSeconds(0.030),
		MinGranularity: cycles.FromSeconds(0.030),
	}
}

// MachineConfig configures one simulated host.
type MachineConfig struct {
	PCPUs int
	Host  SchedParams
	Guest SchedParams

	// HostSwitch is charged when a pCPU switches between host
	// entities; sameContainer reports whether both belong to the same
	// container (always false between Docker processes of different
	// containers, true between two processes of one container).
	HostSwitch func(sameContainer bool) cycles.Cycles
	// GuestSwitch is charged for switches between tasks inside one
	// vCPU.
	GuestSwitch cycles.Cycles

	// Contention scales every task's demand as a function of the total
	// number of runnable processes sharing one kernel instance — lock
	// and softirq contention in a shared monolithic kernel. For
	// per-container kernels (X-Containers, VMs) the per-kernel process
	// count is small and constant.
	Contention func(procsPerKernel int) float64

	// ProcsPerKernel is the process count visible to one kernel
	// instance (all processes for Docker; per-container count for
	// hierarchical runtimes).
	ProcsPerKernel int
}

// Result summarizes one run.
type Result struct {
	Duration      cycles.Cycles
	Completed     uint64
	HostSwitches  uint64
	GuestSwitches uint64
	SwitchCycles  cycles.Cycles
	BusyCycles    cycles.Cycles
}

// Throughput returns completed requests per virtual second.
func (r Result) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

// Machine is one simulated host.
type Machine struct {
	cfg      MachineConfig
	entities []*VCPU
}

// NewMachine creates a host.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if cfg.PCPUs < 1 {
		return nil, fmt.Errorf("cpusim: need at least one pCPU, got %d", cfg.PCPUs)
	}
	if cfg.HostSwitch == nil {
		cfg.HostSwitch = func(bool) cycles.Cycles { return 0 }
	}
	if cfg.Contention == nil {
		cfg.Contention = func(int) float64 { return 1 }
	}
	if cfg.Host.TargetLatency == 0 {
		cfg.Host = CFSParams()
	}
	if cfg.Guest.TargetLatency == 0 {
		cfg.Guest = CFSParams()
	}
	return &Machine{cfg: cfg}, nil
}

// Add registers one host-level entity.
func (m *Machine) Add(v *VCPU) { m.entities = append(m.entities, v) }

// AddFlat registers each task as its own host entity (Docker-style).
func (m *Machine) AddFlat(tasks []*Task, containerID int) {
	for _, t := range tasks {
		m.Add(&VCPU{ContainerID: containerID, Tasks: []*Task{t}})
	}
}

// AddHierarchical registers one vCPU carrying all the container's tasks.
func (m *Machine) AddHierarchical(tasks []*Task, containerID int) {
	m.Add(&VCPU{ContainerID: containerID, Tasks: tasks})
}

// pcpu is one physical CPU's scheduling state between dispatch events.
// It is a typed sim.Handler: each dispatch event runs one host
// timeslice and reschedules itself, so the per-timeslice hot path
// allocates nothing.
type pcpu struct {
	m          *Machine
	res        *Result
	duration   cycles.Cycles
	contention float64
	ref        sim.HandlerRef

	queue []*VCPU
	slice cycles.Cycles
	idx   int
	prev  int // index of previously running entity
}

// HandleEvent is one dispatch: pick the next host entity, charge the
// switch, run one host timeslice, and schedule the following dispatch
// at the consumed-time mark.
func (p *pcpu) HandleEvent(eng *sim.Engine, _ sim.Job) {
	if eng.Now() >= p.duration {
		return
	}
	var adv cycles.Cycles
	e := p.queue[p.idx]
	if p.prev != p.idx {
		same := p.prev >= 0 && p.queue[p.prev].ContainerID == e.ContainerID
		c := p.m.cfg.HostSwitch(same)
		adv += c
		p.res.SwitchCycles += c
		p.res.HostSwitches++
		p.prev = p.idx
	}
	consumed := p.m.runEntity(e, p.slice, p.contention, p.res)
	adv += consumed
	p.res.BusyCycles += consumed
	if consumed == 0 {
		// Nothing runnable in this entity (cannot happen with
		// closed-loop tasks, but guard against empty vCPUs).
		adv += p.slice
	}
	p.idx = (p.idx + 1) % len(p.queue)
	eng.Schedule(adv, p.ref, sim.Job{})
}

// Run simulates the machine for a virtual duration and returns
// aggregate results. Entities are partitioned across pCPUs round-robin
// (an affine load balance, as production schedulers converge to under
// steady load). Each pCPU is an actor on the discrete-event engine: a
// dispatch event picks the next host entity, charges the switch, runs
// one host timeslice (the entity round-robining its tasks with the
// guest parameters), and schedules the following dispatch at the
// consumed-time mark — the same slice arithmetic the hand-rolled loop
// used, now on the shared event kernel all tier-2 models run on.
func (m *Machine) Run(duration cycles.Cycles) Result {
	res := Result{Duration: duration}
	perCPU := make([][]*VCPU, m.cfg.PCPUs)
	for i, e := range m.entities {
		cpu := i % m.cfg.PCPUs
		perCPU[cpu] = append(perCPU[cpu], e)
	}
	contention := m.cfg.Contention(m.cfg.ProcsPerKernel)

	eng := sim.NewEngine()
	for _, queue := range perCPU {
		if len(queue) == 0 {
			continue
		}
		p := &pcpu{
			m: m, res: &res, duration: duration, contention: contention,
			queue: queue, slice: m.cfg.Host.Slice(len(queue)), prev: -1,
		}
		p.ref = eng.Register(p)
		eng.ScheduleAt(0, p.ref, sim.Job{})
	}
	eng.Run(duration)

	for _, e := range m.entities {
		for _, task := range e.Tasks {
			res.Completed += task.Completed
		}
	}
	return res
}

// runEntity runs one host timeslice inside entity e, switching between
// its tasks per the guest scheduler. Returns cycles consumed.
func (m *Machine) runEntity(e *VCPU, budget cycles.Cycles, contention float64, res *Result) cycles.Cycles {
	if len(e.Tasks) == 0 {
		return 0
	}
	var consumed cycles.Cycles
	guestSlice := m.cfg.Guest.Slice(len(e.Tasks))
	for consumed < budget {
		task := e.Tasks[e.guestIdx]
		if task.remaining == 0 {
			task.remaining = cycles.Cycles(float64(task.ReqCycles) * contention)
		}
		if e.guestRemaining == 0 {
			e.guestRemaining = guestSlice
		}
		run := task.remaining
		if run > e.guestRemaining {
			run = e.guestRemaining
		}
		if left := budget - consumed; run > left {
			run = left
		}
		task.remaining -= run
		e.guestRemaining -= run
		consumed += run
		if task.remaining == 0 {
			task.Completed++
		}
		if e.guestRemaining == 0 && len(e.Tasks) > 1 {
			e.guestIdx = (e.guestIdx + 1) % len(e.Tasks)
			consumed += m.cfg.GuestSwitch
			res.SwitchCycles += m.cfg.GuestSwitch
			res.GuestSwitches++
		}
	}
	return consumed
}

// SharedKernelContention is the calibrated contention model for flat
// runtimes: lock, softirq, conntrack-table and scheduler-statistics
// contention in one shared kernel. It is mild until several hundred
// runnable processes and then grows superlinearly (hash-bucket and
// cacheline collisions), reaching ≈+30% at the 1600 processes of the
// Fig. 8 endpoint. Per-container kernels keep procsPerKernel tiny, so
// hierarchical runtimes stay at ≈1.
func SharedKernelContention(procs int) float64 {
	if procs <= 8 {
		return 1
	}
	x := float64(procs) / 1600
	f := 1 + 0.30*pow25(x)
	if f > 1.6 {
		f = 1.6
	}
	return f
}

// pow25 computes x^2.5 without importing math for one call site.
func pow25(x float64) float64 {
	if x <= 0 {
		return 0
	}
	x2 := x * x
	// x^0.5 by Newton iterations (x is O(1); three steps suffice).
	r := x
	for i := 0; i < 12; i++ {
		r = 0.5 * (r + x/r)
	}
	return x2 * r
}
