package xc

import (
	"encoding/json"
	"fmt"
	"strings"

	"xcontainers/internal/cycles"
)

// DefaultInstructionBudget bounds one measured run (and each warm-up
// pass) so misbehaving binaries cannot spin the interpreter forever.
const DefaultInstructionBudget = 500_000_000

// Layer is one entry of the per-layer cycle breakdown.
type Layer struct {
	// Name is "boot" (toolstack + LibOS instantiation), "user"
	// (application instructions and compute), or "kernel" (everything
	// charged by the syscall path, handlers, memory system, and
	// hypervisor underneath the application).
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// SyscallStats is the conversion accounting of one run — Table 1's
// forwarded-versus-converted split.
type SyscallStats struct {
	RawTraps       uint64 `json:"raw_traps"`
	FunctionCalls  uint64 `json:"function_calls"`
	TrappedInLibOS uint64 `json:"trapped_in_libos"`
	// PatchedSites counts sites the ABOM patched during this run alone
	// (warm-up passes patch before measurement, so a fully warmed run
	// reports 0 here with a converted fraction of 1).
	PatchedSites uint64 `json:"abom_patched_sites"`
	// Converted is FunctionCalls / (RawTraps + FunctionCalls).
	Converted float64 `json:"converted_fraction"`
}

// HyperStats summarizes hypervisor-side event counts attributable to
// this run (boot included, warm-up and earlier runs excluded), for
// runtimes that boot a hypervisor (Xen variants and X-Containers).
// EventsDelivered reads 0: no run delivers events through the
// hypervisor model, because interrupts are charged in tier 2
// (runtimes' InterruptCost).
type HyperStats struct {
	Hypercalls        uint64 `json:"hypercalls"`
	SyscallsForwarded uint64 `json:"syscalls_forwarded"`
	EventsDelivered   uint64 `json:"events_delivered"`
	PTUpdates         uint64 `json:"page_table_updates"`
}

// Throughput derives rates from virtual time.
type Throughput struct {
	// IterationsPerSec is main-loop iterations per virtual second
	// (0 when the workload's iteration count is unknown).
	IterationsPerSec float64 `json:"iterations_per_sec,omitempty"`
	SyscallsPerSec   float64 `json:"syscalls_per_sec"`
	// RequestsPerSec is the served request rate of a traffic run
	// (Platform.Serve only).
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	// OfferedPerSec is the mean open-loop arrival rate driven at the
	// platform (0 for closed-loop runs).
	OfferedPerSec float64 `json:"offered_per_sec,omitempty"`
}

// LatencyStats is the sojourn-time distribution of a traffic run:
// queueing plus service, in virtual microseconds.
type LatencyStats struct {
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
}

// QueueStats summarizes queue occupancy over a traffic run.
type QueueStats struct {
	// MeanDepth is the time-weighted requests in system, summed across
	// containers.
	MeanDepth float64 `json:"mean_depth"`
	// MaxDepth is the peak backlog of any one container.
	MaxDepth int `json:"max_depth"`
	// Utilization is the busy fraction of total worker capacity.
	Utilization float64 `json:"utilization"`
}

// TrafficStats identifies the traffic experiment behind a Serve report.
type TrafficStats struct {
	Arrived   uint64 `json:"arrived"`
	Completed uint64 `json:"completed"`
	// Connections is the resolved closed-loop population (0 open loop).
	Connections int    `json:"connections,omitempty"`
	Containers  int    `json:"containers"`
	Seed        uint64 `json:"seed"`
}

// Report is the structured outcome of one Platform.Run: which
// configuration ran what, where the cycles went, and how the syscall
// conversion behaved. It marshals with encoding/json for machine
// consumers (xcrun -json) and renders with String for humans.
type Report struct {
	App          string `json:"app"`
	Runtime      string `json:"runtime"`
	Kind         string `json:"kind"`
	Cloud        string `json:"cloud"`
	Patched      bool   `json:"meltdown_patched"`
	Iterations   uint32 `json:"iterations,omitempty"`
	WarmupPasses uint   `json:"warmup_passes,omitempty"`

	BootCycles     uint64  `json:"boot_cycles"`
	RunCycles      uint64  `json:"run_cycles"`
	TotalCycles    uint64  `json:"total_cycles"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	Instructions   uint64  `json:"instructions"`

	Layers     []Layer      `json:"layer_breakdown"`
	Syscalls   SyscallStats `json:"syscalls"`
	Hypervisor *HyperStats  `json:"hypervisor,omitempty"`
	Throughput Throughput   `json:"throughput"`

	// Latency, Queue, and Traffic are set by Platform.Serve runs only.
	Latency *LatencyStats `json:"latency,omitempty"`
	Queue   *QueueStats   `json:"queue,omitempty"`
	Traffic *TrafficStats `json:"traffic,omitempty"`

	// TimeSeries and BlockCache appear only when the run was observed
	// (xc.Observe attached to the traffic spec or workload); without a
	// spec the report marshals byte-identically to earlier releases.
	TimeSeries *TimeSeries      `json:"time_series,omitempty"`
	BlockCache *BlockCacheStats `json:"block_cache,omitempty"`

	trace *obsRecorder
}

// BlockCacheStats is the tier-1 interpreter's predecode block-cache
// section: pure observability counters, never read back by the model.
type BlockCacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Invalidations uint64  `json:"invalidations"`
	HitRatio      float64 `json:"hit_ratio"`
}

// Run builds the workload, executes its warm-up passes, boots an
// instance, runs it to completion (or the instruction budget), and
// returns the structured report. The instance is destroyed before
// returning; use Boot for long-lived instances.
//
// Warm-up passes execute the same text in throwaway containers on this
// platform, so under X-Containers the ABOM patches call sites before
// the measured pass (steady-state behavior); on other architectures
// they are inert.
func (p *Platform) Run(w *Workload) (*Report, error) {
	text, err := w.Build()
	if err != nil {
		return nil, err
	}
	rt := p.Runtime()
	for i := uint(0); i < w.warmup; i++ {
		c, err := rt.NewContainer(fmt.Sprintf("%s-warmup%d", w.name, i), 1, false)
		if err != nil {
			return nil, fmt.Errorf("xc: warmup pass %d: %w", i, err)
		}
		proc, err := rt.StartProcess(c, text, &cycles.Clock{})
		if err == nil {
			err = proc.CPU.Run(DefaultInstructionBudget)
		}
		if derr := rt.Destroy(c); err == nil {
			err = derr
		}
		if err != nil {
			return nil, fmt.Errorf("xc: warmup pass %d: %w", i, err)
		}
	}

	// Runtime-wide counters (hypervisor stats, ABOM patch totals) are
	// cumulative across warm-up passes and earlier runs on this
	// platform; snapshot them so the report attributes only this run.
	base := p.counterBaseline()
	inst, err := p.Boot(Image{Name: w.name, Program: text})
	if err != nil {
		return nil, err
	}
	if _, err := inst.Run(DefaultInstructionBudget); err != nil {
		p.Destroy(inst)
		return nil, err
	}
	rep := p.report(w, inst, base)
	if err := p.Destroy(inst); err != nil {
		return nil, err
	}
	return rep, nil
}

// counterBaseline snapshots the runtime-global counters a report must
// subtract to stay per-run.
type counterBaseline struct {
	hypercalls, forwarded, events, ptUpdates uint64
	abomPatched                              uint64
}

func (p *Platform) counterBaseline() counterBaseline {
	var b counterBaseline
	if h := p.Runtime().Hyper; h != nil {
		b.hypercalls = h.Stats.Hypercalls
		b.forwarded = h.Stats.SyscallsForwarded
		b.events = h.Stats.EventsDelivered
		b.ptUpdates = h.Stats.PTUpdates
		if h.ABOM != nil {
			st := h.ABOM.Stats
			b.abomPatched = st.Patched7Case1 + st.Patched7Case2 + st.Patched9Phase1
		}
	}
	return b
}

// report assembles the Report from a finished instance's counters,
// subtracting the pre-run baseline from runtime-global ones.
func (p *Platform) report(w *Workload, inst *Instance, base counterBaseline) *Report {
	s := inst.Stats()
	total := uint64(inst.Clock.Now())
	boot := uint64(inst.BootTime)
	run := total - boot
	// The interpreter charges exactly one cycle per instruction plus
	// the explicit compute imm of work instructions; everything else on
	// the clock is the kernel/hypervisor/memory path.
	user := min(s.Instructions+inst.Proc.CPU.Counters.WorkCycles, run)
	kernel := run - user

	rep := &Report{
		App:          w.name,
		Runtime:      p.Runtime().Name(),
		Kind:         KindName(p.cfg.Kind),
		Cloud:        CloudName(p.cfg.Cloud),
		Patched:      p.cfg.MeltdownPatched,
		Iterations:   w.iters,
		WarmupPasses: w.warmup,

		BootCycles:     boot,
		RunCycles:      run,
		TotalCycles:    total,
		VirtualSeconds: cycles.Cycles(total).Seconds(),
		Instructions:   s.Instructions,
	}
	share := func(c uint64) float64 {
		if total == 0 {
			return 0
		}
		return float64(c) / float64(total)
	}
	rep.Layers = []Layer{
		{Name: "boot", Cycles: boot, Share: share(boot)},
		{Name: "user", Cycles: user, Share: share(user)},
		{Name: "kernel", Cycles: kernel, Share: share(kernel)},
	}

	calls := s.RawSyscalls + s.FunctionCalls
	rep.Syscalls = SyscallStats{
		RawTraps:       s.RawSyscalls,
		FunctionCalls:  s.FunctionCalls,
		TrappedInLibOS: s.TrappedInLibOS,
		PatchedSites:   s.ABOMPatches - base.abomPatched,
	}
	if calls > 0 {
		rep.Syscalls.Converted = float64(s.FunctionCalls) / float64(calls)
	}

	if h := p.Runtime().Hyper; h != nil {
		rep.Hypervisor = &HyperStats{
			Hypercalls:        h.Stats.Hypercalls - base.hypercalls,
			SyscallsForwarded: h.Stats.SyscallsForwarded - base.forwarded,
			EventsDelivered:   h.Stats.EventsDelivered - base.events,
			PTUpdates:         h.Stats.PTUpdates - base.ptUpdates,
		}
	}

	runSecs := cycles.Cycles(run).Seconds()
	if runSecs > 0 {
		rep.Throughput.SyscallsPerSec = float64(calls) / runSecs
		if w.iters > 0 && w.text == nil {
			// Application workloads iterate their main loop w.iters times.
			rep.Throughput.IterationsPerSec = float64(w.iters) / runSecs
		}
	}
	if w.observe != nil {
		cnt := &inst.Proc.CPU.Counters
		bc := &BlockCacheStats{
			Hits:          cnt.BlockHits,
			Misses:        cnt.BlockMisses,
			Invalidations: cnt.BlockInvalidations,
		}
		if looked := bc.Hits + bc.Misses; looked > 0 {
			bc.HitRatio = float64(bc.Hits) / float64(looked)
		}
		rep.BlockCache = bc
	}
	return rep
}

// JSON marshals the report as an indented JSON document.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report for terminals, in the style the CLI tools
// historically printed.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app:            %s\n", r.App)
	fmt.Fprintf(&b, "runtime:        %s (cloud %s)\n", r.Runtime, r.Cloud)
	fmt.Fprintf(&b, "virtual time:   %v (boot %v + run %v)\n",
		cycles.Cycles(r.TotalCycles), cycles.Cycles(r.BootCycles), cycles.Cycles(r.RunCycles))
	fmt.Fprintf(&b, "instructions:   %d\n", r.Instructions)
	fmt.Fprintf(&b, "syscalls:       %d raw traps, %d function calls\n",
		r.Syscalls.RawTraps, r.Syscalls.FunctionCalls)
	if r.Syscalls.PatchedSites > 0 || r.Syscalls.FunctionCalls > 0 {
		fmt.Fprintf(&b, "ABOM:           %d sites patched, %.1f%% of syscalls converted\n",
			r.Syscalls.PatchedSites, 100*r.Syscalls.Converted)
	}
	for _, l := range r.Layers {
		fmt.Fprintf(&b, "cycles[%-6s]: %12d (%5.1f%%)\n", l.Name, l.Cycles, 100*l.Share)
	}
	if r.Throughput.SyscallsPerSec > 0 {
		fmt.Fprintf(&b, "throughput:     %.0f syscalls/s", r.Throughput.SyscallsPerSec)
		if r.Throughput.IterationsPerSec > 0 {
			fmt.Fprintf(&b, ", %.0f iterations/s", r.Throughput.IterationsPerSec)
		}
		b.WriteByte('\n')
	}
	if r.Throughput.RequestsPerSec > 0 {
		fmt.Fprintf(&b, "served:         %.0f requests/s", r.Throughput.RequestsPerSec)
		if r.Throughput.OfferedPerSec > 0 {
			fmt.Fprintf(&b, " (offered %.0f/s)", r.Throughput.OfferedPerSec)
		}
		b.WriteByte('\n')
	}
	if r.Latency != nil {
		fmt.Fprintf(&b, "latency:        mean %.1fus, p50 %.1fus, p95 %.1fus, p99 %.1fus\n",
			r.Latency.MeanUS, r.Latency.P50US, r.Latency.P95US, r.Latency.P99US)
	}
	if r.Queue != nil {
		fmt.Fprintf(&b, "queue:          mean depth %.1f, max depth %d, utilization %.1f%%\n",
			r.Queue.MeanDepth, r.Queue.MaxDepth, 100*r.Queue.Utilization)
	}
	return b.String()
}
