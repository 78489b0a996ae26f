package bench

import (
	"fmt"

	"xcontainers/internal/abom"
	"xcontainers/internal/apps"
	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim/par"
)

// Table1Iters and Table1Granularity size the binary runs: granularity
// 1000 resolves site weights to 0.1%, and 50 iterations (50,000
// dynamic syscalls per application) amortize the one-trap-per-site
// patching cost to the steady state the paper measures.
const (
	Table1Iters       = 50
	Table1Granularity = 1000
)

// ABOMResult is one application's measured reduction.
type ABOMResult struct {
	App             *apps.App
	Reduction       float64 // fraction of syscalls converted to function calls
	ManualPatched   int     // offline-tool sites patched (MySQL row)
	ManualReduction float64
	Forwarded       uint64
	Converted       uint64
}

// MeasureABOM runs the application's binary model under a fresh
// X-Container and reports the achieved syscall reduction. If offline is
// true the binary is first run through the offline patching tool (the
// paper's "manual" MySQL result).
func MeasureABOM(app *apps.App, offline bool) (ABOMResult, error) {
	res := ABOMResult{App: app}
	text, err := app.BuildBinary(Table1Iters, Table1Granularity)
	if err != nil {
		return res, err
	}
	if offline {
		rep, err := abom.PatchOffline(text)
		if err != nil {
			return res, err
		}
		res.ManualPatched = rep.PatchedWindow
	}
	rt := runtimes.MustNew(runtimes.Config{
		Kind: runtimes.XContainer, Patched: true, Cloud: runtimes.AmazonEC2,
	})
	c, err := rt.NewContainer(app.Name, 1, false)
	if err != nil {
		return res, err
	}
	p, err := rt.StartProcess(c, text, &cycles.Clock{})
	if err != nil {
		return res, err
	}
	if err := p.CPU.Run(200_000_000); err != nil {
		return res, fmt.Errorf("bench: table1 %s: %w", app.Name, err)
	}
	res.Converted = c.LibOS.Stats.FunctionCallSyscalls
	res.Forwarded = c.LibOS.Stats.TrappedSyscalls
	total := res.Converted + res.Forwarded
	if total > 0 {
		res.Reduction = float64(res.Converted) / float64(total)
	}
	return res, nil
}

// RunTable1 reproduces Table 1: ABOM syscall reduction for the twelve
// applications, including MySQL's manual (offline-tool) variant.
func RunTable1() (*Report, error) {
	t := Table{
		Name:    "Table 1: Automatic Binary Optimization Module efficacy",
		Columns: []string{"Application", "Implementation", "Benchmark", "Syscall Reduction"},
		Note:    "reduction = function-call syscalls / total syscalls, measured by running each app's binary model under the X-Container interpreter with ABOM patching live",
	}
	// One cell per application; MySQL's offline-tool run is a second
	// cell right after its own.
	type cell struct {
		app     *apps.App
		offline bool
	}
	var cells []cell
	for _, app := range apps.Table1Apps() {
		cells = append(cells, cell{app, false})
		if app.Name == "MySQL" {
			cells = append(cells, cell{app, true})
		}
	}
	res, err := par.Cells(len(cells), func(i int) (ABOMResult, error) {
		return MeasureABOM(cells[i].app, cells[i].offline)
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(res); i++ {
		r := res[i]
		reduction := Pct(r.Reduction)
		if i+1 < len(cells) && cells[i+1].offline {
			i++
			m := res[i]
			reduction = fmt.Sprintf("%s (%s manual, %d sites patched offline)",
				Pct(r.Reduction), Pct(m.Reduction), m.ManualPatched)
		}
		t.Rows = append(t.Rows, []string{r.App.Name, r.App.Language, r.App.BenchTool, reduction})
	}
	return &Report{ID: "table1", Title: "ABOM syscall-to-function-call reduction", Tables: []Table{t}}, nil
}

func init() {
	Register(Experiment{ID: "table1", Title: "ABOM efficacy (Table 1)", Run: RunTable1})
}
