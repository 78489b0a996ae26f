package bench

import (
	"fmt"

	"xcontainers/internal/cycles"
	"xcontainers/internal/mem"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/xkernel"
)

// RunSurface reports the §3.4 isolation argument quantitatively: the
// kernel-mode interface and TCB each architecture exposes to a
// container, plus a live demonstration that the X-Kernel rejects
// cross-domain mappings.
func RunSurface() (*Report, error) {
	x := xkernel.XKernelSurface()
	l := xkernel.LinuxSurface()
	t := Table{
		Name:    "Kernel attack surface per container architecture (§3.4)",
		Columns: []string{"Boundary", "Entry points", "TCB (KLoC)", "Shared across tenants"},
	}
	t.Rows = append(t.Rows,
		[]string{"Docker / gVisor host: " + l.Name, fmt.Sprintf("%d syscalls", l.Interfaces), fmt.Sprintf("%d", l.TCBKLoC), yesNo(l.SharedState)},
		[]string{"X-Container: " + x.Name, fmt.Sprintf("%d hypercalls", x.Interfaces), fmt.Sprintf("%d", x.TCBKLoC), yesNo(x.SharedState)},
		[]string{"ratio", fmt.Sprintf("%.1fx fewer", float64(l.Interfaces)/float64(x.Interfaces)), fmt.Sprintf("%.0fx smaller", float64(l.TCBKLoC)/float64(x.TCBKLoC)), ""},
	)

	// Live isolation check: attempt the cross-domain mapping attack and
	// record the outcome.
	rt := runtimes.MustNew(runtimes.Config{Kind: runtimes.XContainer, Patched: true, Cloud: runtimes.LocalCluster})
	victim, err := rt.NewContainer("victim", 1, false)
	if err != nil {
		return nil, err
	}
	attacker, err := rt.NewContainer("attacker", 1, false)
	if err != nil {
		return nil, err
	}
	evil := mem.NewAddressSpace(attacker.Dom.Owner)
	stolen, _ := rt.Hyper.Frames.Nth(victim.Dom.Owner, 0)
	attackErr := rt.Hyper.PTUpdate(&cycles.Clock{}, attacker.Dom, evil, 0x1000, mem.PTE{
		Frame: stolen, User: true, Writable: true,
	})
	verdict := "VULNERABLE: mapping accepted"
	if attackErr != nil {
		verdict = "rejected by mmu_update validation"
	}
	live := Table{
		Name:    "Live isolation check",
		Columns: []string{"Attack", "Outcome"},
		Rows: [][]string{
			{"map another container's frame", verdict},
			{"page-table violations recorded", fmt.Sprintf("%d", rt.Hyper.Stats.PTViolations)},
		},
	}
	return &Report{ID: "surface", Title: "Attack surface and TCB (§3.4)", Tables: []Table{t, live}}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func init() {
	Register(Experiment{ID: "surface", Title: "Attack surface / TCB comparison (§3.4)", Run: RunSurface})
}
