// Package apps models the container applications of the paper's
// evaluation. Each application contributes:
//
//   - a binary model: a synthetic program whose system-call wrapper
//     *shapes* match the application's real implementation (glibc-style
//     5-byte movs for C/C++, Go's syscall.Syscall stack dispatcher,
//     libpthread's cancellable-syscall gap shapes for MySQL, ...). The
//     Table 1 experiment runs these binaries under the X-Container
//     tier-1 interpreter and lets ABOM patch them for real;
//   - a request profile: the syscall mix, CPU work, and packet count of
//     serving one request, used by the flow-level macro benchmarks.
package apps

import (
	"fmt"
	"math"
	"strconv"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/syscalls"
)

// WrapperShape is the binary shape of one syscall site.
type WrapperShape uint8

const (
	// ShapeCase1: glibc default — "mov $n,%eax; syscall" (ABOM 7-byte
	// case 1).
	ShapeCase1 WrapperShape = iota
	// ShapeRex9: "mov $n,%rax; syscall" with the REX.W mov (ABOM's
	// two-phase 9-byte pattern; common in hand-written asm and some
	// runtimes).
	ShapeRex9
	// ShapeGoStack: Go's syscall.Syscall — the number is reloaded from
	// the stack right before the instruction (ABOM 7-byte case 2).
	ShapeGoStack
	// ShapeGapped: libpthread cancellable syscalls — cancellation
	// bookkeeping sits between the mov and the syscall, defeating the
	// online matcher; the offline tool can relocate it (§5.2, MySQL).
	ShapeGapped
	// ShapeOpaque: the syscall number arrives in RAX from a register
	// or memory path no static tool can resolve; never patchable.
	ShapeOpaque
)

func (s WrapperShape) String() string {
	switch s {
	case ShapeCase1:
		return "case1"
	case ShapeRex9:
		return "rex9"
	case ShapeGoStack:
		return "go-stack"
	case ShapeGapped:
		return "gapped"
	case ShapeOpaque:
		return "opaque"
	}
	return "?"
}

// Site is one syscall call site in an application binary, with the
// fraction of the app's dynamic syscalls it accounts for.
type Site struct {
	N      syscalls.No
	Shape  WrapperShape
	Weight float64
}

// App describes one evaluated application.
type App struct {
	Name      string
	Language  string
	BenchTool string
	// Sites is the binary's syscall site population. Weights sum to 1.
	Sites []Site

	// Request profile (flow level). A "request" is the unit one
	// generator interaction costs the server; pipelining clients
	// (redis-benchmark, memtier with depth) batch several operations
	// per request, captured by OpsPerRequest (0 means 1).
	ReqSyscalls   []syscalls.No // syscalls issued per served request
	ReqWork       cycles.Cycles // user-space CPU per request
	ReqPackets    int           // wire packets per request
	OpsPerRequest int           // client operations amortized per request
	Processes     int           // worker processes (1 = event-driven single process)
	ThreadsPer    int           // threads per process
}

// Validate checks internal consistency.
func (a *App) Validate() error {
	sum := 0.0
	for _, s := range a.Sites {
		if s.Weight < 0 {
			return fmt.Errorf("apps: %s: negative weight", a.Name)
		}
		sum += s.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("apps: %s: site weights sum to %v, want 1", a.Name, sum)
	}
	return nil
}

// BuildBinary assembles the application's binary model: one subroutine
// per site plus a main loop that calls sites according to their weights
// (expanded into a deterministic schedule of `granularity` calls per
// iteration), repeated `iters` times.
func (a *App) BuildBinary(iters uint32, granularity int) (*arch.Text, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if granularity <= 0 {
		granularity = 100
	}
	// Largest-remainder apportionment of granularity slots to sites.
	counts := make([]int, len(a.Sites))
	rem := make([]float64, len(a.Sites))
	total := 0
	for i, s := range a.Sites {
		exact := s.Weight * float64(granularity)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		total += counts[i]
	}
	for total < granularity {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		total++
	}

	labels := make([]string, len(a.Sites)) // one stub label per site
	for i := range labels {
		labels[i] = "site" + strconv.Itoa(i)
	}
	asm := arch.NewAssembler(arch.UserTextBase)
	// Main loop: call each site's stub count[i] times per iteration.
	asm.Loop(iters, func(b *arch.Assembler) {
		for i := range a.Sites {
			for k := 0; k < counts[i]; k++ {
				if a.Sites[i].Shape == ShapeGoStack {
					b.PushImm(uint32(a.Sites[i].N))
					b.Call(labels[i])
					b.PopRax() // caller cleans the pushed argument
				} else {
					b.Call(labels[i])
				}
			}
		}
	})
	asm.Hlt()

	// Site stubs.
	for i, s := range a.Sites {
		asm.Label(labels[i])
		switch s.Shape {
		case ShapeCase1:
			asm.SyscallN(uint32(s.N))
		case ShapeRex9:
			asm.SyscallN64(uint32(s.N))
		case ShapeGoStack:
			// Number pushed by the caller: after our call frame it sits
			// at 0x8(%rsp).
			asm.MovRaxRsp8(8)
			asm.Syscall()
		case ShapeGapped:
			// libpthread shape: number mov, cancellation bookkeeping,
			// then the syscall.
			asm.MovR32(arch.RAX, uint32(s.N))
			asm.PushRdi()
			asm.PopRdi()
			asm.Syscall()
		case ShapeOpaque:
			// Number restored from the stack; no static immediate.
			asm.PushImm(uint32(s.N))
			asm.PopRax()
			asm.Syscall()
		}
		asm.Ret()
	}
	return asm.Assemble()
}
