// Package runtimes composes the substrate kernels into the container
// architectures the paper evaluates (Fig. 1):
//
//	Docker          processes on a shared monolithic Linux kernel
//	Xen-Container   Docker container inside a stock Xen PV VM (≈LightVM)
//	X-Container     processes + X-LibOS on the X-Kernel (the paper)
//	gVisor          user-space kernel intercepting syscalls via ptrace
//	Clear Container container inside a KVM VM (nested in cloud VMs)
//	Unikernel       Rumprun-style single-process library OS on Xen
//	Graphene        multi-process library OS on a Linux host
//	Xen PV / HVM    plain Docker-in-VM configurations for Fig. 8
//
// Each runtime exposes two coupled views:
//
//   - tier 1 (instruction level): StartProcess returns an executing
//     arch.CPU wired to the architecture's environment, so the same
//     binary runs under every runtime and each trap takes that
//     architecture's real control path (including ABOM patching);
//   - tier 2 (flow level): per-event cost queries (SyscallCost,
//     NetPerPacket, CtxSwitch, ForkExec) used by the request-level
//     simulations that reproduce the macro figures.
package runtimes

import (
	"fmt"

	"xcontainers/internal/cycles"
	"xcontainers/internal/libos"
	"xcontainers/internal/linuxsim"
	"xcontainers/internal/syscalls"
	"xcontainers/internal/xkernel"
)

// Kind enumerates the evaluated architectures.
type Kind uint8

const (
	Docker Kind = iota
	XenContainer
	XContainer
	GVisor
	ClearContainer
	Unikernel
	Graphene
	XenPVVM  // plain Docker-in-Xen-PV VM (Fig. 8 baseline)
	XenHVMVM // plain Docker-in-Xen-HVM VM (Fig. 8 baseline)
)

var kindNames = map[Kind]string{
	Docker: "Docker", XenContainer: "Xen-Container", XContainer: "X-Container",
	GVisor: "gVisor", ClearContainer: "Clear-Container", Unikernel: "Unikernel",
	Graphene: "Graphene", XenPVVM: "Xen PV", XenHVMVM: "Xen HVM",
}

func (k Kind) String() string { return kindNames[k] }

// The runtime calibration constants (Clear Containers' optimized guest
// syscall path, Graphene's LibOS/IPC/host-forward costs, the Rumprun
// and gVisor-netstack scaling factors) live in cycles.CostTable so
// WithCostTable overrides them like every other charged event; see
// normalizeCosts for the zero-value fallback and DESIGN.md §4 for the
// calibration sources. Validate against the paper by regenerating the
// evaluation with cmd/xcbench.

// normalizeCosts returns a table whose zero-valued calibration fields
// are filled from the defaults: a custom table built by tweaking a few
// trap costs must not silently zero Graphene's or Clear Containers'
// runtime model.
func normalizeCosts(t *cycles.CostTable) *cycles.CostTable {
	if t == nil {
		return &cycles.Default
	}
	c := *t
	if c.OptimizedGuestSyscall == 0 {
		c.OptimizedGuestSyscall = cycles.Default.OptimizedGuestSyscall
	}
	if c.GrapheneSyscall == 0 {
		c.GrapheneSyscall = cycles.Default.GrapheneSyscall
	}
	if c.GrapheneIPC == 0 {
		c.GrapheneIPC = cycles.Default.GrapheneIPC
	}
	if c.GrapheneHostForward == 0 {
		c.GrapheneHostForward = cycles.Default.GrapheneHostForward
	}
	if c.RumpHandlerFactor == 0 {
		c.RumpHandlerFactor = cycles.Default.RumpHandlerFactor
	}
	if c.GVisorNetstackFactor == 0 {
		c.GVisorNetstackFactor = cycles.Default.GVisorNetstackFactor
	}
	return &c
}

// Cloud selects the provider profile of §5.1. Clear Containers need
// nested hardware virtualization, which EC2 lacks; the two clouds also
// differ slightly in network cost.
type Cloud uint8

const (
	LocalCluster Cloud = iota
	AmazonEC2
	GoogleGCE
)

func (c Cloud) String() string {
	switch c {
	case AmazonEC2:
		return "Amazon"
	case GoogleGCE:
		return "Google"
	}
	return "Local"
}

// SupportsNestedVirt reports whether Clear Containers can run at all.
func (c Cloud) SupportsNestedVirt() bool { return c == GoogleGCE || c == LocalCluster }

// Config selects one evaluated configuration.
type Config struct {
	Kind    Kind
	Patched bool // Meltdown mitigation applied (KPTI host/guest, XPTI hypervisor)
	Cloud   Cloud
	Costs   *cycles.CostTable
	// MachineFrames bounds host memory for scalability experiments
	// (0 = unlimited).
	MachineFrames int
}

// Runtime is one booted platform instance.
type Runtime struct {
	Cfg   Config
	Costs *cycles.CostTable

	// Host is the host Linux kernel (Docker, gVisor, Graphene, Clear).
	Host *linuxsim.Kernel
	// Hyper is the hypervisor (Xen variants and X-Container).
	Hyper *xkernel.Kernel
	// guestKPTI is the guest-kernel configuration cloned per container
	// for VM-based runtimes.
	guestKPTI bool

	nextID int
}

// New boots a runtime per cfg.
func New(cfg Config) (*Runtime, error) {
	costs := normalizeCosts(cfg.Costs)
	r := &Runtime{Cfg: cfg, Costs: costs}
	switch cfg.Kind {
	case Docker, GVisor, Graphene:
		r.Host = linuxsim.NewKernel(costs, cfg.Patched)
	case ClearContainer:
		if !cfg.Cloud.SupportsNestedVirt() {
			return nil, fmt.Errorf("runtimes: %v requires nested virtualization, unavailable on %v", cfg.Kind, cfg.Cloud)
		}
		// Per §5.1 only the host kernel is patched; the guest kernel in
		// the nested VM stays unpatched.
		r.Host = linuxsim.NewKernel(costs, cfg.Patched)
		r.guestKPTI = false
	case XenContainer, XenPVVM, XenHVMVM:
		r.Hyper = xkernel.New(xkernel.Config{
			Mode: xkernel.ModeXenPV, Costs: costs, XPTI: cfg.Patched,
			Blanket: cfg.Cloud != LocalCluster, MachineFrames: cfg.MachineFrames,
		})
		r.guestKPTI = cfg.Patched
	case XContainer:
		r.Hyper = xkernel.New(xkernel.Config{
			Mode: xkernel.ModeXKernel, Costs: costs, XPTI: cfg.Patched,
			Blanket: cfg.Cloud != LocalCluster, MachineFrames: cfg.MachineFrames,
		})
	case Unikernel:
		r.Hyper = xkernel.New(xkernel.Config{
			Mode: xkernel.ModeXenPV, Costs: costs, XPTI: cfg.Patched,
			Blanket: cfg.Cloud != LocalCluster, MachineFrames: cfg.MachineFrames,
		})
	default:
		return nil, fmt.Errorf("runtimes: unknown kind %d", cfg.Kind)
	}
	return r, nil
}

// MustNew is New for static configurations in benchmarks and examples.
func MustNew(cfg Config) *Runtime {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Name renders the configuration like the paper's legends
// ("X-Container", "Docker-unpatched", ...).
func (r *Runtime) Name() string {
	n := r.Cfg.Kind.String()
	if !r.Cfg.Patched {
		n += "-unpatched"
	}
	return n
}

// Container is one isolation unit under a runtime: a Docker container,
// an X-Container, a VM-wrapped container, etc.
type Container struct {
	RT   *Runtime
	Name string
	ID   int

	// LibOS is set for X-Containers.
	LibOS *libos.LibOS
	// Guest is the per-VM guest kernel for VM-based runtimes.
	Guest *linuxsim.Kernel
	// Dom is the hypervisor domain for Xen-based runtimes.
	Dom *xkernel.Domain
	// Svc is where this container's syscall semantics live. For Docker,
	// gVisor and Graphene it is shared machine-wide state; for VM and
	// X-Container runtimes it is private.
	Svc *linuxsim.Services

	// Procs counts live processes (Unikernel enforces exactly one).
	Procs int
}

// MemoryPagesPerInstance is the per-container memory reservation used
// by the Fig. 8 scalability experiment (§5.6): X-Containers boot with
// 128 MB, Xen VMs need 512 MB (256 MB when packing >200).
func (r *Runtime) MemoryPagesPerInstance(packed bool) int {
	const mb = 1 << 20 / 4096
	switch r.Cfg.Kind {
	case XContainer:
		return 128 * mb
	case XenPVVM, XenHVMVM, XenContainer:
		if packed {
			return 256 * mb
		}
		return 512 * mb
	case ClearContainer:
		return 256 * mb
	default:
		// OS-level containers only pay for the application itself.
		return 16 * mb
	}
}

// NewContainer boots one container. vcpus is its virtual CPU count
// (ignored for host-shared runtimes). packed selects the smaller VM
// memory size used when oversubscribing (Fig. 8).
func (r *Runtime) NewContainer(name string, vcpus int, packed bool) (*Container, error) {
	r.nextID++
	c := &Container{RT: r, Name: name, ID: r.nextID}
	pages := r.MemoryPagesPerInstance(packed)
	switch r.Cfg.Kind {
	case Docker, GVisor, Graphene:
		// Shared host kernel; gVisor interposes its own Sentry services
		// per sandbox, Graphene its own LibOS instance, but fd/file
		// semantics still come from one services object per sandbox.
		if r.Cfg.Kind == Docker {
			c.Svc = r.Host.Services
		} else {
			c.Svc = linuxsim.NewServices()
		}
	case XContainer:
		dom, err := r.Hyper.CreateDomain(name, xkernel.DomXContainer, pages, vcpus)
		if err != nil {
			return nil, err
		}
		c.Dom = dom
		c.LibOS = libos.New(r.Costs, libos.DefaultConfig())
		c.Svc = c.LibOS.Services
	case XenContainer, XenPVVM, XenHVMVM:
		dom, err := r.Hyper.CreateDomain(name, xkernel.DomPVGuest, pages, vcpus)
		if err != nil {
			return nil, err
		}
		c.Dom = dom
		c.Guest = linuxsim.NewKernel(r.Costs, r.guestKPTI)
		c.Svc = c.Guest.Services
	case ClearContainer:
		c.Guest = linuxsim.NewKernel(r.Costs, r.guestKPTI)
		c.Svc = c.Guest.Services
	case Unikernel:
		dom, err := r.Hyper.CreateDomain(name, xkernel.DomPVGuest, pages, vcpus)
		if err != nil {
			return nil, err
		}
		c.Dom = dom
		c.Svc = linuxsim.NewServices()
	}
	return c, nil
}

// Destroy releases the container's resources.
func (r *Runtime) Destroy(c *Container) error {
	if c.Dom != nil {
		return r.Hyper.DestroyDomain(c.Dom.ID)
	}
	return nil
}

// SyscallCost is the tier-2 steady-state cost of one system call,
// including the handler body. converted applies only to X-Containers
// and reports whether ABOM turned this site into a function call.
func (r *Runtime) SyscallCost(n syscalls.No, converted bool) cycles.Cycles {
	body := cycles.Cycles(syscalls.HandlerCycles(syscalls.Classify(n)))
	switch r.Cfg.Kind {
	case Docker, XenPVVM, XenHVMVM:
		c := r.Costs.SyscallTrap + body
		if r.Cfg.Patched {
			c += r.Costs.KPTIPerSyscall
		}
		if r.Cfg.Kind == XenPVVM {
			// PV guest: syscalls forwarded by the hypervisor (§4.1).
			c += r.Costs.PVSyscallForward - r.Costs.SyscallTrap
		}
		return c
	case XenContainer:
		c := r.Costs.PVSyscallForward + body
		if r.Cfg.Patched {
			c += r.Costs.KPTIPerSyscall // guest KPTI + XPTI combined tax
		}
		return c
	case XContainer:
		if converted {
			return r.Costs.FunctionCall + body
		}
		return r.Costs.XSyscallForward + body
	case GVisor:
		c := r.Costs.PtraceSyscallStop + body
		if r.Cfg.Patched {
			// Each ptrace stop is itself host syscalls; KPTI taxes them.
			c += 4 * r.Costs.KPTIPerSyscall
		}
		return c
	case ClearContainer:
		// Syscalls stay inside the guest; the (unpatched, stripped)
		// guest kernel handles them with its optimized path.
		return r.Costs.OptimizedGuestSyscall + body
	case Unikernel:
		return r.Costs.FunctionCall + cycles.Cycles(float64(body)*r.Costs.RumpHandlerFactor)
	case Graphene:
		k := syscalls.Classify(n)
		c := r.Costs.GrapheneSyscall + body
		if k == syscalls.KindIO || k == syscalls.KindWait {
			// Network/file I/O must reach the host kernel underneath.
			c += r.Costs.GrapheneHostForward + r.Costs.SyscallTrap
			if r.Cfg.Patched {
				c += r.Costs.KPTIPerSyscall
			}
		}
		return c
	}
	return body
}

// GrapheneIPCCost is the extra multi-process coordination cost Graphene
// pays per state-sharing syscall when nProcs > 1 (§5.5, Fig. 6b).
func (r *Runtime) GrapheneIPCCost(n syscalls.No, nProcs int) cycles.Cycles {
	if nProcs <= 1 {
		return 0
	}
	switch syscalls.Classify(n) {
	case syscalls.KindFd, syscalls.KindProcess, syscalls.KindSignal, syscalls.KindWait:
		return r.Costs.GrapheneIPC
	}
	return 0
}

// CtxSwitch is the tier-2 cost of switching between two processes.
// sameContainer distinguishes intra-container switches (which keep
// global X-LibOS TLB entries, §4.3) from cross-container ones.
func (r *Runtime) CtxSwitch(sameContainer bool) cycles.Cycles {
	c := r.Costs.ContextSwitchKernel
	// PV-family guests (including X-LibOS) cannot write CR3 directly:
	// every address-space switch is a validated hypercall, taxed by
	// XPTI when the hypervisor is patched — the §5.4 context-switch
	// and process-creation overhead of X-Containers.
	hyper := r.Costs.Hypercall
	if r.Cfg.Patched {
		hyper += r.Costs.KPTIPerSyscall
	}
	switch r.Cfg.Kind {
	case XContainer:
		if sameContainer {
			return c + r.Costs.AddressSpaceSwitch + hyper
		}
		return c + r.Costs.VCPUSwitch + r.Costs.CrossContainerSwitch + hyper
	case XenContainer, XenPVVM, Unikernel:
		// PV guests: no global bit — full flush either way; cross-VM
		// adds the hypervisor world switch.
		if sameContainer {
			return c + r.Costs.AddressSpaceSwitchNoGlobal + hyper
		}
		return c + r.Costs.VCPUSwitch + r.Costs.AddressSpaceSwitchNoGlobal + hyper
	case XenHVMVM, ClearContainer:
		if sameContainer {
			return c + r.Costs.AddressSpaceSwitch
		}
		return c + r.Costs.VCPUSwitch + r.Costs.VMExit
	default: // Docker, gVisor, Graphene: flat host scheduling
		c += r.Costs.AddressSpaceSwitch
		if r.Cfg.Patched {
			c += r.Costs.KPTIPerSyscall / 2
		}
		return c
	}
}

// ForkExecCost is the tier-2 cost of fork+exec of an image with the
// given page count — where X-Containers pay their §5.4 penalty: every
// page-table update is a validated hypercall.
func (r *Runtime) ForkExecCost(imagePages int) cycles.Cycles {
	updates := linuxsim.ForkPages(imagePages) + linuxsim.ExecPages(imagePages)
	body := cycles.Cycles(2 * syscalls.HandlerCycles(syscalls.KindProcess))
	switch r.Cfg.Kind {
	case XContainer, XenContainer, XenPVVM, Unikernel:
		return body + cycles.Cycles(updates)*r.Costs.PageTableUpdateHypercall
	case GVisor:
		// The Sentry mirrors page tables through host mmap calls.
		return body + cycles.Cycles(updates)*(r.Costs.PageTableUpdateDirect+r.Costs.SyscallTrap/4)
	case ClearContainer, XenHVMVM:
		return body + cycles.Cycles(updates)*r.Costs.PageTableUpdateDirect +
			cycles.Cycles(updates/16)*r.Costs.VMExit
	default:
		return body + cycles.Cycles(updates)*r.Costs.PageTableUpdateDirect
	}
}

// NetPerPacket is the tier-2 cost of pushing one packet through this
// architecture's network path (kernel stack + virtual drivers +
// host-side plumbing), excluding the wire itself.
func (r *Runtime) NetPerPacket() cycles.Cycles {
	stack := r.Costs.NetStackPerPacket
	nic := r.Costs.NICPerPacket
	cloudTax := cycles.Cycles(0)
	if r.Cfg.Cloud == GoogleGCE {
		cloudTax = stack / 8 // GCE's virtual NIC path measured slightly slower
	}
	// Cloud deployments expose servers through iptables port
	// forwarding (§5.3); local-cluster Xen networking is plain bridged.
	portFwd := cycles.Cycles(0)
	if r.Cfg.Cloud != LocalCluster {
		portFwd = r.Costs.IptablesHop
	}
	switch r.Cfg.Kind {
	case Docker:
		// Host stack + docker0 bridge with conntrack/NAT, always.
		return stack + nic + r.Costs.ConntrackNAT + portFwd + cloudTax
	case GVisor:
		// Netstack in the Sentry, then host socket over the bridge.
		return cycles.Cycles(float64(stack)*r.Costs.GVisorNetstackFactor) + stack/2 + nic + r.Costs.ConntrackNAT + portFwd + cloudTax
	case XenContainer, XenPVVM, XenHVMVM:
		// Guest stack -> split driver ring -> Domain-0 bridge.
		ring := r.Costs.SplitDriverRing
		if r.Hyper != nil && r.Hyper.Blanket {
			ring += r.Costs.SplitDriverRing / 4
		}
		return stack + ring + r.Costs.BridgeHop + portFwd + nic + cloudTax
	case XContainer:
		// X-LibOS stack -> split driver ring -> driver domain bridge.
		ring := r.Costs.SplitDriverRing
		if r.Hyper != nil && r.Hyper.Blanket {
			ring += r.Costs.SplitDriverRing / 4
		}
		return stack + ring + r.Costs.BridgeHop + portFwd + nic + cloudTax
	case Unikernel:
		ring := r.Costs.SplitDriverRing
		return cycles.Cycles(float64(stack)*r.Costs.RumpHandlerFactor) + ring + r.Costs.BridgeHop + nic + cloudTax
	case ClearContainer:
		// virtio through the nested hypervisor: each packet batch exits.
		return stack + stack/2 + nic + r.Costs.NestedVMExit/2 + r.Costs.ConntrackNAT + portFwd + cloudTax
	case Graphene:
		return stack + nic + r.Costs.ConntrackNAT + portFwd + cloudTax
	}
	return stack + nic
}

// InterruptCost is the tier-2 per-interrupt delivery cost (network RX
// batches are charged one delivery per batch).
func (r *Runtime) InterruptCost() cycles.Cycles {
	switch r.Cfg.Kind {
	case XContainer:
		// §4.2: user-mode emulation of the interrupt frame + user iret.
		return r.Costs.EventChannelUserMode + r.Costs.IretUserMode
	case XenContainer, XenPVVM, Unikernel:
		c := r.Costs.EventChannelDeliver + r.Costs.IretHypercall
		if r.Cfg.Patched {
			c += 2 * r.Costs.KPTIPerSyscall
		}
		return c
	case ClearContainer:
		return r.Costs.InterruptDeliver + r.Costs.NestedVMExit
	case XenHVMVM:
		return r.Costs.InterruptDeliver + r.Costs.VMExit
	default:
		c := r.Costs.InterruptDeliver
		if r.Cfg.Patched {
			c += r.Costs.KPTIPerSyscall
		}
		return c
	}
}

// Hierarchical reports whether the host scheduler sees one vCPU per
// container (true) or every process individually (false) — the Fig. 8
// mechanism.
func (r *Runtime) Hierarchical() bool {
	switch r.Cfg.Kind {
	case XContainer, XenContainer, XenPVVM, XenHVMVM, Unikernel, ClearContainer:
		return true
	}
	return false
}
