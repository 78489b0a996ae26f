// Package xkernel implements the X-Kernel: the Xen hypervisor modified
// per the paper's §4.2–4.4 to serve as an exokernel for X-Containers.
//
// It also implements the *unmodified* Xen PV behaviour, selected by
// Mode, so that the Xen-Container baseline (≈LightVM) shares every line
// of this code except the modifications under evaluation — mirroring
// the paper's setup where "the only difference between Xen-Containers
// and X-Containers is the underlying hypervisor and guest kernel".
package xkernel

import (
	"fmt"
	"sync"

	"xcontainers/internal/abom"
	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/mem"
)

// Mode selects stock Xen PV behaviour or the X-Kernel modifications.
type Mode uint8

const (
	// ModeXenPV is unmodified Xen paravirtualization: guest kernel
	// isolated from user processes in its own address space; every
	// syscall forwarded through the hypervisor with a page-table
	// switch and TLB flush (§4.1).
	ModeXenPV Mode = iota
	// ModeXKernel applies the paper's modifications: LibOS shares the
	// process address space (no kernel isolation), lightweight syscalls
	// via ABOM, user-mode iret/sysret, global-bit LibOS mappings,
	// stack-pointer mode detection.
	ModeXKernel
)

func (m Mode) String() string {
	if m == ModeXenPV {
		return "xen-pv"
	}
	return "x-kernel"
}

// DomID identifies a domain (VM / X-Container).
type DomID uint32

// DomainType distinguishes what runs inside a domain.
type DomainType uint8

const (
	// DomPVGuest is a full paravirtualized Linux guest (Xen-Container).
	DomPVGuest DomainType = iota
	// DomXContainer is an X-Container: X-LibOS + application processes.
	DomXContainer
	// DomDriver is a driver domain (isolated device drivers).
	DomDriver
)

// Stats aggregates hypervisor-side event counts.
type Stats struct {
	Hypercalls        uint64
	SyscallsForwarded uint64 // syscalls that trapped into the hypervisor
	EventsDelivered   uint64 // no writer: interrupts are charged in tier 2 (runtimes.InterruptCost)
	PTUpdates         uint64
	PTViolations      uint64 // rejected cross-domain mappings
}

// Kernel is one hypervisor instance managing one physical machine.
type Kernel struct {
	Mode   Mode
	Costs  *cycles.CostTable
	ABOM   *abom.ABOM
	Frames *mem.FrameAllocator

	// XPTI is the hypervisor-side Meltdown patch ("the same patch
	// exists for Xen and we ported it", §5.1). It taxes every trap into
	// the hypervisor; with X-Container lightweight syscalls almost
	// nothing traps, which is why the patch leaves X-Containers
	// unaffected in Figs. 4–5.
	XPTI bool

	// Blanket enables the Xen-Blanket compatibility layer for running
	// nested in a public cloud (§4: "We leveraged Xen-Blanket drivers").
	// It adds a small per-I/O cost but changes no semantics.
	Blanket bool

	mu      sync.Mutex
	nextDom DomID
	domains map[DomID]*Domain
	Stats   Stats
}

// Domain is one protection domain: a PV guest VM or an X-Container.
type Domain struct {
	ID    DomID
	Name  string
	Type  DomainType
	Owner mem.OwnerID
	// MemoryPages is the static memory allocation (§4.5: "each
	// X-Container is configured with a static memory size"). The frames
	// themselves are recorded only by the hypervisor's FrameAllocator,
	// under Owner.
	MemoryPages int
	VCPUs       int
	// Spaces are the address spaces (page tables) the domain's guest
	// kernel has registered with the hypervisor.
	Spaces []*mem.AddressSpace
}

// Config configures a new hypervisor instance.
type Config struct {
	Mode    Mode
	Costs   *cycles.CostTable
	XPTI    bool
	Blanket bool
	// MachineFrames is the host memory budget in pages (0 = unlimited).
	MachineFrames int
}

// New boots a hypervisor.
func New(cfg Config) *Kernel {
	costs := cfg.Costs
	if costs == nil {
		costs = &cycles.Default
	}
	k := &Kernel{
		Mode:    cfg.Mode,
		Costs:   costs,
		Frames:  mem.NewFrameAllocator(cfg.MachineFrames),
		XPTI:    cfg.XPTI,
		Blanket: cfg.Blanket,
		nextDom: 1,
		domains: make(map[DomID]*Domain),
	}
	if cfg.Mode == ModeXKernel {
		k.ABOM = abom.New()
	}
	return k
}

// trapTax is the extra cost XPTI adds to every entry into the
// hypervisor.
func (k *Kernel) trapTax() cycles.Cycles {
	if k.XPTI {
		return k.Costs.KPTIPerSyscall
	}
	return 0
}

// CreateDomain allocates a domain with its memory reservation.
func (k *Kernel) CreateDomain(name string, typ DomainType, memPages, vcpus int) (*Domain, error) {
	k.mu.Lock()
	id := k.nextDom
	k.nextDom++
	k.mu.Unlock()

	if typ == DomXContainer && k.Mode != ModeXKernel {
		return nil, fmt.Errorf("xkernel: X-Container domains require ModeXKernel, running %v", k.Mode)
	}
	if _, err := k.Frames.AllocN(mem.OwnerID(id), memPages); err != nil {
		return nil, fmt.Errorf("xkernel: create domain %q: %w", name, err)
	}
	d := &Domain{
		ID: id, Name: name, Type: typ, Owner: mem.OwnerID(id),
		MemoryPages: memPages, VCPUs: vcpus,
	}
	k.mu.Lock()
	k.domains[id] = d
	k.mu.Unlock()
	return d, nil
}

// DestroyDomain tears a domain down and releases its memory.
func (k *Kernel) DestroyDomain(id DomID) error {
	k.mu.Lock()
	d, ok := k.domains[id]
	if ok {
		delete(k.domains, id)
	}
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("xkernel: destroy: no domain %d", id)
	}
	k.Frames.FreeOwner(d.Owner)
	return nil
}

// Domains returns the number of live domains.
func (k *Kernel) Domains() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.domains)
}

// RegisterAddressSpace validates and installs a page table for a
// domain. Every PTE must reference a frame the domain owns; this is the
// exokernel's isolation guarantee and the invariant tests attack it
// with cross-domain mappings.
func (k *Kernel) RegisterAddressSpace(d *Domain, as *mem.AddressSpace) error {
	var bad error
	as.Each(func(vp uint64, pte mem.PTE) {
		if bad != nil {
			return
		}
		owner, ok := k.Frames.Owner(pte.Frame)
		if !ok || owner != d.Owner {
			bad = fmt.Errorf("xkernel: domain %d maps frame %d owned by %d", d.ID, pte.Frame, owner)
		}
	})
	if bad != nil {
		k.mu.Lock()
		k.Stats.PTViolations++
		k.mu.Unlock()
		return bad
	}
	d.Spaces = append(d.Spaces, as)
	return nil
}

// PTUpdate validates one page-table update requested via mmu_update.
// Rejected updates leave the page table untouched.
func (k *Kernel) PTUpdate(clk *cycles.Clock, d *Domain, as *mem.AddressSpace, vpage uint64, pte mem.PTE) error {
	k.mu.Lock()
	k.Stats.Hypercalls++
	k.Stats.PTUpdates++
	k.mu.Unlock()
	clk.Advance(k.Costs.PageTableUpdateHypercall + k.trapTax())
	owner, ok := k.Frames.Owner(pte.Frame)
	if !ok || owner != d.Owner {
		k.mu.Lock()
		k.Stats.PTViolations++
		k.mu.Unlock()
		return fmt.Errorf("xkernel: pt update: domain %d cannot map frame %d (owner %d)", d.ID, pte.Frame, owner)
	}
	if k.Mode == ModeXKernel && arch.InKernelHalf(vpage*mem.PageSize) {
		// X-LibOS mappings get the global bit (§4.3); the hypervisor
		// permits it because kernel isolation inside the container is
		// deliberately gone.
		pte.Global = true
	}
	as.Map(vpage, pte)
	return nil
}

// ForwardSyscallPV charges the stock 64-bit Xen PV syscall path: trap
// into the hypervisor, then a virtual exception into the guest kernel
// in a different address space, with page-table switch and TLB flush
// (§4.1). Returns the total path cost excluding the handler body.
func (k *Kernel) ForwardSyscallPV(clk *cycles.Clock) {
	k.mu.Lock()
	k.Stats.SyscallsForwarded++
	k.mu.Unlock()
	clk.Advance(k.Costs.PVSyscallForward + k.trapTax())
}

// ForwardSyscallX handles a trapped syscall from an X-Container
// process: charge the (cheaper: same address space) forwarding path,
// then let ABOM try to patch the call site so the *next* invocation is
// a function call. text may be nil for flow-level simulations that only
// need the cost.
func (k *Kernel) ForwardSyscallX(clk *cycles.Clock, text *arch.Text, sysRIP, rax uint64) abom.PatchResult {
	k.mu.Lock()
	k.Stats.SyscallsForwarded++
	k.mu.Unlock()
	clk.Advance(k.Costs.XSyscallForward + k.trapTax())
	if text == nil || k.ABOM == nil {
		return abom.PatchNone
	}
	res := k.ABOM.OnSyscall(text, sysRIP, rax)
	if res != abom.PatchNone {
		clk.Advance(k.Costs.ABOMPatch)
	}
	return res
}
