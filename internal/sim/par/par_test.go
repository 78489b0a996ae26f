package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunEveryIndexOnce runs phases of every size around the worker
// count and checks each index ran exactly once.
func TestRunEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4} {
		p := New(workers)
		for _, n := range []int{0, 1, workers - 1, workers, workers + 1, 3*workers + 2, 100} {
			if n < 0 {
				continue
			}
			hits := make([]atomic.Int32, n)
			p.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestRunPublishes checks the phase's memory ordering with plain
// (non-atomic) accesses, so that -race reports any missing edge: writes
// before Run reach every call, and every call's writes reach the caller
// after Run returns. Each call waits until all of them have started, so
// no goroutine can claim a second item and every helper runs one;
// trivial items would all be claimed by the caller before a helper
// woke.
func TestRunPublishes(t *testing.T) {
	const workers = 4
	p := New(workers)
	defer p.Close()
	in := make([]int, workers)
	out := make([]int, workers)
	for round := 1; round <= 20; round++ {
		for i := range in {
			in[i] = round * i
		}
		var started atomic.Int32
		p.Run(workers, func(i int) {
			started.Add(1)
			for started.Load() < workers {
				runtime.Gosched()
			}
			runtime.Gosched()
			out[i] = in[i] + 1
		})
		for i := range out {
			if out[i] != round*i+1 {
				t.Fatalf("round %d: out[%d] = %d, want %d", round, i, out[i], round*i+1)
			}
		}
	}
}

// TestCloseUnwoken closes pools whose helpers never ran a phase, and
// one whose helpers ran only some phases.
func TestCloseUnwoken(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		New(workers).Close()
	}
	p := New(8)
	p.Run(2, func(int) {}) // wakes one of seven helpers
	p.Close()
}

// TestRunAllocFree pins the handoff at zero allocations per phase.
func TestRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	p := New(4)
	defer p.Close()
	var sink [16]int
	fn := func(i int) { sink[i]++ }
	if n := testing.AllocsPerRun(1, func() {
		for range 100 {
			p.Run(len(sink), fn)
		}
	}); n != 0 {
		t.Fatalf("Run allocates %v times in 100 phases, want 0", n)
	}
}
