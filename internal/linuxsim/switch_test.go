package linuxsim_test

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
)

func TestKernelContextSwitchGlobalBit(t *testing.T) {
	// A native Linux kernel keeps its kernel mappings global, so a
	// process switch flushes only user entries; a PV guest kernel
	// cannot set the global bit and pays the full flush (§4.3).
	for _, patched := range []bool{false, true} {
		cs := func(kind runtimes.Kind) cycles.Cycles {
			rt := runtimes.MustNew(runtimes.Config{Kind: kind, Patched: patched, Cloud: runtimes.LocalCluster})
			return rt.CtxSwitch(true)
		}
		if native, pv := cs(runtimes.Docker), cs(runtimes.XenContainer); pv <= native {
			t.Errorf("patched=%v: PV guest switch %d, want above the native kernel's %d", patched, pv, native)
		}
	}
}
