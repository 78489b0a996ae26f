package xkernel_test

import (
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/mem"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/xkernel"
)

func TestVCPUSwitchTLBBehaviour(t *testing.T) {
	// Within one X-Container, LibOS mappings installed through the
	// X-Kernel are global: after a switch to another process's address
	// space they still hit, so the switch refills only user entries.
	k := xkernel.New(xkernel.Config{Mode: xkernel.ModeXKernel})
	d, err := k.CreateDomain("c", xkernel.DomXContainer, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := &cycles.Clock{}
	kernPage := arch.KernelSpaceStart/mem.PageSize + 42
	userPage := arch.UserTextBase / mem.PageSize
	p1, p2 := mem.NewAddressSpace(d.Owner), mem.NewAddressSpace(d.Owner)
	kernFrame, _ := k.Frames.Nth(d.Owner, 0)
	userFrame, _ := k.Frames.Nth(d.Owner, 1)
	for _, as := range []*mem.AddressSpace{p1, p2} {
		if err := k.PTUpdate(clk, d, as, kernPage, mem.PTE{Frame: kernFrame}); err != nil {
			t.Fatal(err)
		}
		if err := k.PTUpdate(clk, d, as, userPage, mem.PTE{Frame: userFrame, User: true}); err != nil {
			t.Fatal(err)
		}
	}
	tlb := mem.NewTLB(8)
	tlb.Lookup(p1, kernPage)
	tlb.Lookup(p1, userPage)
	if _, ok, miss := tlb.Lookup(p2, kernPage); !ok || miss {
		t.Error("LibOS entry must survive an intra-container switch")
	}
	if _, ok, miss := tlb.Lookup(p2, userPage); !ok || !miss {
		t.Error("user entry must not serve another process")
	}

	// A cross-container switch also changes vCPU and flushes the global
	// entries, so it costs more than an intra-container one.
	for _, patched := range []bool{false, true} {
		rt := runtimes.MustNew(runtimes.Config{Kind: runtimes.XContainer, Patched: patched, Cloud: runtimes.LocalCluster})
		if intra, cross := rt.CtxSwitch(true), rt.CtxSwitch(false); cross <= intra {
			t.Errorf("patched=%v: cross-container switch %d, want above intra-container %d", patched, cross, intra)
		}
	}
}
