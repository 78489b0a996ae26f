package runtimes

import (
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/syscalls"
)

func TestABOMPatchSetsDirtyBit(t *testing.T) {
	// §4.4 end to end: the online patch of a read-only text page marks
	// that page dirty in the process's page table.
	rt := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	c, err := rt.NewContainer("dirty", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	text := arch.NewAssembler(arch.UserTextBase).
		SyscallN(uint32(syscalls.Getpid)).Hlt().MustAssemble()
	p, err := rt.StartProcess(c, text, &cycles.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.CPU.AS.DirtyPages(); len(d) != 0 {
		t.Fatalf("pages dirty before any patch: %v", d)
	}
	if err := p.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	d := p.CPU.AS.DirtyPages()
	if len(d) != 1 || d[0] != arch.UserTextBase/arch.PageSize {
		t.Fatalf("dirty pages after patch = %v, want the first text page", d)
	}
	// The LibOS can clear it after flushing (the choice §4.4 offers).
	p.CPU.AS.ClearDirty(d[0])
	if len(p.CPU.AS.DirtyPages()) != 0 {
		t.Fatal("dirty bit did not clear")
	}
}

func TestNetPerPacketOrdering(t *testing.T) {
	per := func(kind Kind, cloud Cloud) cycles.Cycles {
		rt := MustNew(Config{Kind: kind, Patched: true, Cloud: cloud})
		return rt.NetPerPacket()
	}
	// gVisor's user-space netstack costs more than Docker's kernel one.
	if per(GVisor, AmazonEC2) <= per(Docker, AmazonEC2) {
		t.Error("gVisor packet path must exceed Docker's")
	}
	// Local-cluster Xen networking skips the port-forward hop.
	if per(XContainer, LocalCluster) >= per(XContainer, AmazonEC2) {
		t.Error("local bridged networking must be cheaper than cloud port forwarding")
	}
	// Docker always pays the conntrack/NAT bridge, so local Docker is
	// costlier per packet than local X-Containers.
	if per(Docker, LocalCluster) <= per(XContainer, LocalCluster) {
		t.Error("docker0 NAT must cost more than the bridged Xen path locally")
	}
	// Nested virtualization makes Clear Containers' path the worst
	// kernel-based one.
	if per(ClearContainer, GoogleGCE) <= per(Docker, GoogleGCE) {
		t.Error("nested-virt packet path must exceed Docker's")
	}
	// GCE's virtual NIC tax.
	if per(Docker, GoogleGCE) <= per(Docker, AmazonEC2) {
		t.Error("GCE cloud tax missing")
	}
}

func TestInterruptCostOrdering(t *testing.T) {
	ic := func(kind Kind, patched bool) cycles.Cycles {
		return MustNew(Config{Kind: kind, Patched: patched, Cloud: LocalCluster}).InterruptCost()
	}
	// §4.2: user-mode event delivery beats everything.
	if ic(XContainer, true) >= ic(Docker, true) {
		t.Error("X-Container interrupts must be cheapest (user-mode emulation)")
	}
	if ic(XContainer, true) != ic(XContainer, false) {
		t.Error("the Meltdown patch must not touch X-Container interrupt delivery")
	}
	if ic(XenContainer, true) <= ic(XenContainer, false) {
		t.Error("patched PV guests pay for interrupt traps")
	}
	if ic(ClearContainer, true) <= ic(Docker, true) {
		t.Error("nested-virt interrupts must exceed native ones")
	}
}

func TestCtxSwitchPaperProperties(t *testing.T) {
	kinds := []Kind{Docker, XenContainer, XContainer, GVisor, ClearContainer,
		Unikernel, Graphene, XenPVVM, XenHVMVM}
	for _, patched := range []bool{false, true} {
		cs := func(kind Kind, same bool) cycles.Cycles {
			return MustNew(Config{Kind: kind, Patched: patched, Cloud: LocalCluster}).CtxSwitch(same)
		}
		// §4.3: X-LibOS mappings keep the global bit, so an intra-container
		// switch flushes less than a PV guest's, which cannot use it.
		if x, xen := cs(XContainer, true), cs(XenContainer, true); x >= xen {
			t.Errorf("patched=%v: X-Container intra-container switch %d, want below Xen-Container's %d", patched, x, xen)
		}
		for _, kind := range kinds {
			intra, cross := cs(kind, true), cs(kind, false)
			hier := MustNew(Config{Kind: kind, Cloud: LocalCluster}).Hierarchical()
			switch {
			case hier && cross <= intra:
				t.Errorf("%v patched=%v: cross-container switch %d, want above intra-container %d", kind, patched, cross, intra)
			case !hier && cross != intra:
				t.Errorf("%v patched=%v: flat scheduling, want equal switches, got intra %d cross %d", kind, patched, intra, cross)
			}
		}
	}
}

func TestHierarchicalClassification(t *testing.T) {
	hier := map[Kind]bool{
		Docker: false, GVisor: false, Graphene: false,
		XContainer: true, XenContainer: true, XenPVVM: true,
		XenHVMVM: true, Unikernel: true, ClearContainer: true,
	}
	for kind, want := range hier {
		cloud := LocalCluster
		rt := MustNew(Config{Kind: kind, Cloud: cloud})
		if rt.Hierarchical() != want {
			t.Errorf("%v hierarchical = %v, want %v", kind, rt.Hierarchical(), want)
		}
	}
}

func TestMemoryPagesPerInstance(t *testing.T) {
	const mb = 256 // pages per MB
	xc := MustNew(Config{Kind: XContainer, Cloud: LocalCluster})
	if got := xc.MemoryPagesPerInstance(false); got != 128*mb {
		t.Errorf("X-Container = %d pages, want 128 MB", got)
	}
	pv := MustNew(Config{Kind: XenPVVM, Cloud: LocalCluster})
	if got := pv.MemoryPagesPerInstance(false); got != 512*mb {
		t.Errorf("Xen VM = %d pages, want 512 MB", got)
	}
	if got := pv.MemoryPagesPerInstance(true); got != 256*mb {
		t.Errorf("packed Xen VM = %d pages, want 256 MB (§5.6)", got)
	}
	dk := MustNew(Config{Kind: Docker, Cloud: LocalCluster})
	if dk.MemoryPagesPerInstance(false) >= xc.MemoryPagesPerInstance(false) {
		t.Error("OS-level containers must be lighter than X-Containers")
	}
}

func TestRuntimeNames(t *testing.T) {
	p := MustNew(Config{Kind: XContainer, Patched: true, Cloud: LocalCluster})
	u := MustNew(Config{Kind: XContainer, Patched: false, Cloud: LocalCluster})
	if p.Name() != "X-Container" || u.Name() != "X-Container-unpatched" {
		t.Errorf("names = %q / %q", p.Name(), u.Name())
	}
}

func TestCalibrationConstantsOverridableViaCostTable(t *testing.T) {
	// The runtime calibration constants live in cycles.CostTable so a
	// custom table overrides them like any other charged event.
	custom := cycles.Default
	custom.OptimizedGuestSyscall = 10 * cycles.Default.OptimizedGuestSyscall
	custom.GrapheneSyscall = 10 * cycles.Default.GrapheneSyscall
	custom.GrapheneIPC = 10 * cycles.Default.GrapheneIPC
	custom.RumpHandlerFactor = 10 * cycles.Default.RumpHandlerFactor

	base := MustNew(Config{Kind: ClearContainer, Cloud: LocalCluster})
	slow := MustNew(Config{Kind: ClearContainer, Cloud: LocalCluster, Costs: &custom})
	if slow.SyscallCost(syscalls.Getpid, false) <= base.SyscallCost(syscalls.Getpid, false) {
		t.Error("OptimizedGuestSyscall override did not take effect")
	}

	gBase := MustNew(Config{Kind: Graphene, Cloud: LocalCluster})
	gSlow := MustNew(Config{Kind: Graphene, Cloud: LocalCluster, Costs: &custom})
	if gSlow.SyscallCost(syscalls.Getpid, false) <= gBase.SyscallCost(syscalls.Getpid, false) {
		t.Error("GrapheneSyscall override did not take effect")
	}
	if gSlow.GrapheneIPCCost(syscalls.Close, 4) != custom.GrapheneIPC {
		t.Errorf("GrapheneIPC = %v, want %v", gSlow.GrapheneIPCCost(syscalls.Close, 4), custom.GrapheneIPC)
	}

	uBase := MustNew(Config{Kind: Unikernel, Cloud: LocalCluster})
	uSlow := MustNew(Config{Kind: Unikernel, Cloud: LocalCluster, Costs: &custom})
	if uSlow.SyscallCost(syscalls.Read, false) <= uBase.SyscallCost(syscalls.Read, false) {
		t.Error("RumpHandlerFactor override did not take effect")
	}
}

func TestPartialCostTableKeepsCalibrationDefaults(t *testing.T) {
	// A table built from scratch (zero calibration fields) must not
	// zero out the baseline runtime models.
	partial := &cycles.CostTable{SyscallTrap: 500}
	g := MustNew(Config{Kind: Graphene, Cloud: LocalCluster, Costs: partial})
	if g.Costs.GrapheneSyscall != cycles.Default.GrapheneSyscall {
		t.Errorf("GrapheneSyscall = %v, want default %v", g.Costs.GrapheneSyscall, cycles.Default.GrapheneSyscall)
	}
	if g.Costs.RumpHandlerFactor != cycles.Default.RumpHandlerFactor {
		t.Errorf("RumpHandlerFactor = %v, want default %v", g.Costs.RumpHandlerFactor, cycles.Default.RumpHandlerFactor)
	}
	// The explicitly set field is preserved.
	if g.Costs.SyscallTrap != 500 {
		t.Errorf("SyscallTrap = %v, want the override 500", g.Costs.SyscallTrap)
	}
}
