package linuxsim

import (
	"sync"

	"xcontainers/internal/cycles"
	"xcontainers/internal/syscalls"
)

// KernelStats counts kernel entry events.
type KernelStats struct {
	Syscalls uint64
}

// Kernel is the monolithic Linux kernel model: the host kernel under
// Docker and gVisor, and the guest kernel inside Xen-Container and
// Clear-Container VMs.
type Kernel struct {
	Costs *cycles.CostTable

	// KPTI is the Meltdown page-table-isolation patch: every syscall
	// entry pays two CR3 switches plus TLB refill.
	KPTI bool

	Services *Services

	mu    sync.Mutex
	Stats KernelStats
}

// NewKernel boots a native-Linux kernel model.
func NewKernel(costs *cycles.CostTable, kpti bool) *Kernel {
	if costs == nil {
		costs = &cycles.Default
	}
	return &Kernel{Costs: costs, KPTI: kpti, Services: NewServices()}
}

// SyscallEntry charges one syscall mode-switch round trip (trap +
// sysret + KPTI tax), excluding the handler body.
func (k *Kernel) SyscallEntry(clk *cycles.Clock) {
	k.mu.Lock()
	k.Stats.Syscalls++
	k.mu.Unlock()
	clk.Advance(k.Costs.SyscallTrap)
	if k.KPTI {
		clk.Advance(k.Costs.KPTIPerSyscall)
	}
}

// HandlerBody charges the handler work for syscall n (identical across
// all kernels; see syscalls.HandlerCycles).
func (k *Kernel) HandlerBody(clk *cycles.Clock, n syscalls.No) {
	clk.Advance(cycles.Cycles(syscalls.HandlerCycles(syscalls.Classify(n))))
}

// ForkPages returns how many page-table updates a fork of a process
// with the given image size performs (shared text mapped copy-on-write:
// page-table entries still must be written).
func ForkPages(imagePages int) int {
	// Page tables themselves plus COW remapping of writable pages;
	// a fixed fraction models shared read-only text.
	n := imagePages/2 + 16
	return n
}

// ExecPages returns the page-table update count for execve of an image.
func ExecPages(imagePages int) int {
	return imagePages + 32
}
