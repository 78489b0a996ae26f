package par

import (
	"fmt"
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

// TestCells checks the one-shot helper's contract at GOMAXPROCS 1 (one
// worker, every item inline and in order) and 4: results come back in
// index order, and of several failing items the lowest index's error
// wins. With helpers, the low items wait for the top one to finish, so
// completion order is not index order.
func TestCells(t *testing.T) {
	for _, gmp := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			// waitFor blocks until item top has returned; only a pool
			// of three or more workers has one left to run it.
			waitFor := func(top *atomic.Bool) {
				for gmp > 2 && !top.Load() {
					runtime.Gosched()
				}
			}

			const n = 16
			var last atomic.Bool
			out, err := Cells(n, func(i int) (int, error) {
				switch i {
				case 0, 1:
					waitFor(&last)
				case n - 1:
					defer last.Store(true)
				}
				return i*i + 1, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i+1 {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i+1)
				}
			}

			var hi atomic.Bool
			out, err = Cells(n, func(i int) (int, error) {
				switch i {
				case 2:
					waitFor(&hi)
				case 11:
					defer hi.Store(true)
				}
				if i == 2 || i == 5 || i == 11 {
					return 0, fmt.Errorf("item %d", i)
				}
				return i, nil
			})
			if out != nil || err == nil || err.Error() != "item 2" {
				t.Fatalf("Cells = %v, %v; want nil and the error of item 2", out, err)
			}
		})
	}
}
