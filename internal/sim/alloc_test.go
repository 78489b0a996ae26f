package sim

import (
	"math/bits"
	"runtime"
	"testing"
	"unsafe"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

// The zero-alloc budget is a hard property of the kernel, not a
// nice-to-have: per-event allocations were the old kernel's dominant
// cost, and a regression here silently taxes every tier-2 experiment.
// Each test warms the engine until its arenas (heap keys, payload
// slots, backlog segments) reach steady-state capacity, then requires
// exactly zero allocations over a batch of runs, or, where a backlog
// can still reach a new high-water mark, exactly the segments it took.

// requireZeroAllocs runs fn runs times, after a warm-up of one whole
// batch, and requires the batch to allocate nothing. It reads the exact
// total: AllocsPerRun(runs, fn) integer-divides, so it would pass a
// path that allocates fewer than runs times.
func requireZeroAllocs(t *testing.T, name string, runs int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			fn()
		}
	}); n != 0 {
		t.Errorf("%s: %v allocations in %d steady-state runs, want 0", name, n, runs)
	}
}

// heldSegs counts the backlog segments q holds, live and spare: its
// backlog's high-water mark, in segments.
func heldSegs(q *Queue) int {
	n := 0
	for _, s := range q.segs {
		if s != nil {
			n++
		}
	}
	return n
}

// TestOpenLoopSteadyStateAllocFree drives Poisson arrivals through a
// queue — the exact hot path of workload.TrafficLoad — and requires
// allocation-free steady state across Engine.Run chunks, except where
// the backlog reaches a new high-water mark: it then takes a segment
// (and, if every ring slot is live, a doubled ring of segment
// pointers) by design, and the budget is exactly those allocations.
func TestOpenLoopSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	e := NewEngine()
	q := NewQueue(e, "s", 2)
	var latency obs.Histogram
	q.OnDone = func(j Job) { latency.Observe(e.Now() - j.Born) }
	const service = cycles.Cycles(25_000)
	rate := 0.9 * 2 * float64(cycles.Hz) / float64(service)
	horizon := cycles.FromSeconds(3600) // effectively unbounded
	e.DriveArrivals(PoissonRate(rate), NewRand(7), horizon, func(id uint64) {
		q.Arrive(Job{ID: id, Cost: service, Born: e.Now()})
	})

	until := cycles.FromSeconds(0.01)
	e.Run(until) // warm-up: grow heap, arena, and ring to capacity
	const runs = 50
	var depth0, segs0, ring0 int
	n := testing.AllocsPerRun(1, func() {
		depth0, segs0, ring0 = q.MaxDepth(), heldSegs(q), len(q.segs)
		for i := 0; i < runs; i++ {
			until += cycles.FromSeconds(0.002)
			e.Run(until)
		}
	})
	grown := heldSegs(q) - segs0 + bits.Len(uint(len(q.segs))) - bits.Len(uint(ring0))
	if q.MaxDepth() == depth0 && grown != 0 {
		t.Errorf("backlog took %d allocations with no new high-water mark (max depth %d)", grown, depth0)
	}
	if waiting := q.MaxDepth() - q.Servers; heldSegs(q) > (waiting+2*segJobs-2)/segJobs {
		t.Errorf("backlog holds %d segments for at most %d waiting jobs", heldSegs(q), waiting)
	}
	if n != float64(grown) {
		t.Errorf("open loop: %v allocations in %d steady-state runs, want %d: max depth %d → %d, segments %d → %d, ring %d → %d",
			n, runs, grown, depth0, q.MaxDepth(), segs0, heldSegs(q), ring0, len(q.segs))
	}
	if q.Completed == 0 {
		t.Fatal("steady-state run completed no jobs")
	}
}

// TestClosedLoopSteadyStateAllocFree exercises the backlog-segment reuse
// path: a population larger than the server count keeps the backlog
// non-empty, so every completion pops and every re-issue pushes.
func TestClosedLoopSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 2)
	const service = cycles.Cycles(10_000)
	q.OnDone = func(j Job) { q.Arrive(Job{ID: j.ID, Cost: service, Born: e.Now()}) }
	for i := 0; i < 64; i++ {
		q.Arrive(Job{ID: uint64(i + 1), Cost: service})
	}

	until := cycles.FromSeconds(0.01)
	e.Run(until)
	requireZeroAllocs(t, "closed loop", 50, func() {
		until += cycles.FromSeconds(0.002)
		e.Run(until)
	})
}

// TestQueueFootprint pins the size of a queue header, of a job and of
// a backlog segment. Per-replica queues are a fleet's working set — a
// 10k-replica run touches every one of them each epoch — so the queue
// carries no per-queue latency histogram (8 KiB of bucket counts); a
// consumer measures sojourn through OnDone from the job's Born stamp.
// A Job is copied into every payload slot and backlog segment, so it
// holds only what callers read, and a segment, which every queue that
// ever waits holds one of, fills the 512-byte size class exactly.
func TestQueueFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Queue{}); n > 256 {
		t.Fatalf("sizeof(Queue) = %d bytes, want <= 256", n)
	}
	if n := unsafe.Sizeof(Job{}); n != 32 {
		t.Fatalf("sizeof(Job) = %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(segment{}); n != 512 {
		t.Fatalf("sizeof(segment) = %d bytes, want 512", n)
	}
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	q.Arrive(Job{ID: 1, Cost: 10, Born: e.Now()})
	e.Run(100)
	var sojourn obs.Histogram // measurement covers completions from here on
	q.OnDone = func(j Job) { sojourn.Observe(e.Now() - j.Born) }
	q.Arrive(Job{ID: 2, Cost: 10, Born: e.Now()})
	q.Arrive(Job{ID: 3, Cost: 10, Born: e.Now()})
	e.Run(200)
	if q.Completed != 3 || sojourn.Count() != 2 || sojourn.Max() != 20 {
		t.Fatalf("completed %d, sojourn count %d max %d; want 3, 2, 20",
			q.Completed, sojourn.Count(), sojourn.Max())
	}
}

// TestQueueBacklogFootprint pins what a backlog costs: growing a
// queue to n waiting jobs allocates n×32 bytes of segments, rounded up
// to one more segment, plus the doublings of the ring of segment
// pointers, at most a sixteenth on top; draining and refilling it
// reuses the segments without allocating.
func TestQueueBacklogFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; footprint not measurable")
	}
	const n = 10_000
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	fill := func() {
		q.Suspend() // everything waits: only the backlog allocates
		for i := 0; i < n; i++ {
			q.Arrive(Job{ID: uint64(i + 1), Cost: 1})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*32*17/16+512); got > limit {
		t.Fatalf("growing to %d waiting jobs allocated %d bytes, want <= %d", n, got, limit)
	}
	requireZeroAllocs(t, "drain and refill", 5, func() {
		q.Resume()
		e.RunUntilIdle()
		fill()
	})
	if q.Completed < 5*n {
		t.Fatalf("completed %d jobs, want at least %d", q.Completed, 5*n)
	}
}

// TestEngineOwnsItsCacheLines pins the layout sharded runs rely on:
// the shards of one cluster run drive their engines on different
// cores, so an Engine must fill whole 64-byte lines (the allocator's
// size classes then start every engine on a line), and declaring a
// lane must not allocate lane metadata outside the engine, where
// neighbouring engines' small allocations would share its lines.
func TestEngineOwnsItsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n%64 != 0 {
		t.Fatalf("sizeof(Engine) = %d bytes, not a whole number of 64-byte lines", n)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc budget not measurable")
	}
	// Every call below declares a new lane, up to the cap; the
	// allocator's counters give the exact total.
	e := NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for d := cycles.Cycles(1); d <= maxLanes; d++ {
		e.DeclareDelay(d)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("DeclareDelay allocates %d times declaring %d lanes, want 0", n, maxLanes)
	}
	if e.nlanes != maxLanes {
		t.Fatalf("%d lanes declared, want %d", e.nlanes, maxLanes)
	}
}

// TestAfterSteadyStateAllocFree pins the cold-path form too: a
// preallocated callback scheduled through After reuses the func()
// arena, so control loops (autoscaler ticks) do not allocate per tick
// either — only their closures, once, at set-up.
func TestAfterSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	ticks := 0
	fn := func() { ticks++ }
	e.After(10, fn)
	if !e.Step() {
		t.Fatal("warm-up tick did not fire")
	}
	requireZeroAllocs(t, "After+Step", 100, func() {
		e.After(10, fn)
		e.Step()
	})
}

// countHandler is a minimal typed-event consumer.
type countHandler struct{ n int }

func (c *countHandler) HandleEvent(*Engine, Job) { c.n++ }

// TestScheduleSteadyStateAllocFree pins the typed path in isolation:
// schedule and fire one event per run against a registered handler.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	ref := e.Register(h)
	e.Schedule(10, ref, Job{Cost: 1})
	e.Step()
	requireZeroAllocs(t, "Schedule+Step", 100, func() {
		e.Schedule(10, ref, Job{Cost: 1})
		e.Step()
	})
	if h.n == 0 {
		t.Fatal("handler never fired")
	}
}

// TestLanedTimeoutsAllocFree pins the fixed-delay lanes: a closed loop
// arming one timeout per request on a declared delay, nearly all of
// them stale, runs allocation-free once the lane ring has grown.
func TestLanedTimeoutsAllocFree(t *testing.T) {
	l := newTimeoutLoop(true)
	until := cycles.FromSeconds(0.01)
	l.e.Run(until)
	requireZeroAllocs(t, "laned timeouts", 50, func() {
		until += cycles.FromSeconds(0.002)
		l.e.Run(until)
	})
	if l.e.laned == 0 || l.n == 0 {
		t.Fatalf("lanes hold %d timeouts after %d requests; the lane was never used", l.e.laned, l.n)
	}
	if l.expired != 0 {
		t.Fatalf("%d timeouts expired a request; the loop answers every one in time", l.expired)
	}
}
