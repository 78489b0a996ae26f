package sim

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("fire order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("clock = %v, want 30", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", got)
		}
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(100, func() { fired++ })
	e.At(101, func() { fired++ })
	e.Run(100)
	if fired != 2 {
		t.Errorf("fired %d events within horizon 100, want 2", fired)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want clamped to horizon", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1 beyond horizon", e.Pending())
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var at cycles.Cycles
	e.At(50, func() {
		e.At(10, func() { at = e.Now() }) // in the past: fires now
	})
	e.RunUntilIdle()
	if at != 50 {
		t.Errorf("past event fired at %v, want clamped to 50", at)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must replay the same stream")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Error("different seeds should diverge immediately")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if m := sum / 10000; m < 0.47 || m > 0.53 {
		t.Errorf("uniform mean = %v, want ≈0.5", m)
	}
}

func TestPoissonRateMean(t *testing.T) {
	r := NewRand(3)
	arr := PoissonRate(1000) // mean gap = Hz/1000
	var total cycles.Cycles
	const n = 20000
	for i := 0; i < n; i++ {
		total += arr.Next(r)
	}
	mean := float64(total) / n
	want := float64(cycles.Hz) / 1000
	if mean < 0.97*want || mean > 1.03*want {
		t.Errorf("poisson mean gap = %v, want ≈%v", mean, want)
	}
}

func TestBurstyMeanRate(t *testing.T) {
	r := NewRand(9)
	// 10k req/s peak, on 10 ms / off 30 ms -> 2.5k req/s average.
	b := NewBursty(10_000, 0.010, 0.030)
	var total cycles.Cycles
	const n = 30000
	for i := 0; i < n; i++ {
		total += b.Next(r)
	}
	rate := n / cycles.Cycles.Seconds(total)
	if rate < 2000 || rate > 3000 {
		t.Errorf("bursty mean rate = %v req/s, want ≈2500", rate)
	}
}

func TestFixedRateGap(t *testing.T) {
	arr := FixedRate(2_900_000) // gap of exactly 1000 cycles
	if g := arr.Next(nil); g != 1000 {
		t.Errorf("gap = %v, want 1000", g)
	}
	if g := FixedRate(0).Next(nil); g < cycles.Cycles(1)<<61 {
		t.Errorf("zero rate must yield an effectively infinite gap, got %v", g)
	}
}

func TestQueueSingleServerFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	var sojourn obs.Histogram
	var done []uint64
	q.OnDone = func(j Job) {
		done = append(done, j.ID)
		sojourn.Observe(e.Now() - j.Born)
	}
	for i := uint64(1); i <= 3; i++ {
		id := i
		e.At(0, func() { q.Arrive(Job{ID: id, Cost: 100, Born: e.Now()}) })
	}
	e.RunUntilIdle()
	if len(done) != 3 || done[0] != 1 || done[1] != 2 || done[2] != 3 {
		t.Errorf("completion order = %v, want FIFO", done)
	}
	if e.Now() != 300 {
		t.Errorf("3 sequential jobs of 100cy finished at %v, want 300", e.Now())
	}
	// Sojourns: 100, 200, 300 -> mean 200.
	if m := sojourn.Mean(); m != 200 {
		t.Errorf("mean sojourn = %v, want 200", m)
	}
	if q.MaxDepth() != 3 {
		t.Errorf("max depth = %d, want 3", q.MaxDepth())
	}
}

func TestQueueMultiServerParallelism(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 4)
	for i := 0; i < 4; i++ {
		e.At(0, func() { q.Arrive(Job{Cost: 500}) })
	}
	e.RunUntilIdle()
	if e.Now() != 500 {
		t.Errorf("4 jobs on 4 servers finished at %v, want 500", e.Now())
	}
	if q.Completed != 4 {
		t.Errorf("completed = %d, want 4", q.Completed)
	}
}

func TestQueueLowUtilizationLatencyIsService(t *testing.T) {
	// At 1% utilization, sojourn ≈ service time: queueing vanishes.
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	var sojourn obs.Histogram
	q.OnDone = func(j Job) { sojourn.Observe(e.Now() - j.Born) }
	r := NewRand(5)
	arr := PoissonRate(100)
	const service = cycles.Cycles(290_000) // 100 µs; offered load 1%
	var schedule func()
	horizon := cycles.FromSeconds(2)
	schedule = func() {
		if e.Now() >= horizon {
			return
		}
		q.Arrive(Job{Cost: service, Born: e.Now()})
		e.After(arr.Next(r), schedule)
	}
	e.At(arr.Next(r), schedule)
	e.Run(horizon)
	if m := sojourn.Mean(); m > 1.1*float64(service) {
		t.Errorf("mean sojourn %v at 1%% load, want ≈service %v", m, service)
	}
	if u := q.Utilization(horizon); u < 0.005 || u > 0.02 {
		t.Errorf("utilization = %v, want ≈0.01", u)
	}
}

func TestQueueSaturationThroughputIsCapacity(t *testing.T) {
	// Driven at 2x capacity, a queue completes exactly capacity.
	e := NewEngine()
	q := NewQueue(e, "s", 2)
	const service = cycles.Cycles(1_000_000)
	arr := FixedRate(2 * 2 * float64(cycles.Hz) / float64(service))
	horizon := cycles.FromSeconds(1)
	var schedule func()
	schedule = func() {
		if e.Now() >= horizon {
			return
		}
		q.Arrive(Job{Cost: service})
		e.After(arr.Next(nil), schedule)
	}
	e.At(0, schedule)
	e.Run(horizon)
	capacity := 2 * float64(cycles.Hz) / float64(service)
	got := float64(q.Completed)
	if got < 0.99*capacity || got > 1.01*capacity {
		t.Errorf("saturated completions = %v, want ≈capacity %v", got, capacity)
	}
	if u := q.Utilization(horizon); u < 0.99 {
		t.Errorf("utilization = %v, want ≈1", u)
	}
	if q.MaxDepth() < 100 {
		t.Errorf("overload must build a backlog, max depth = %d", q.MaxDepth())
	}
}

// TestDeterministicReplay is the engine-level determinism gate: an
// open-loop M/D/2 run replayed with the same seed must reproduce every
// statistic bit for bit.
func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) (uint64, float64, cycles.Cycles, int) {
		e := NewEngine()
		q := NewQueue(e, "s", 2)
		var sojourn obs.Histogram
		q.OnDone = func(j Job) { sojourn.Observe(e.Now() - j.Born) }
		r := NewRand(seed)
		arr := PoissonRate(50_000)
		horizon := cycles.FromSeconds(1)
		var schedule func()
		schedule = func() {
			if e.Now() >= horizon {
				return
			}
			q.Arrive(Job{Cost: 30_000, Born: e.Now()})
			e.After(arr.Next(r), schedule)
		}
		e.At(arr.Next(r), schedule)
		e.Run(horizon)
		return q.Completed, sojourn.Mean(), sojourn.Quantile(0.99), q.MaxDepth()
	}
	c1, m1, p1, d1 := run(1234)
	c2, m2, p2, d2 := run(1234)
	if c1 != c2 || m1 != m2 || p1 != p2 || d1 != d2 {
		t.Errorf("replay diverged: (%d %v %v %d) vs (%d %v %v %d)", c1, m1, p1, d1, c2, m2, p2, d2)
	}
	c3, _, _, _ := run(99)
	if c3 == c1 {
		t.Error("different seeds should produce different traces")
	}
}

// TestUtilizationClipsJobsStraddlingHorizon is the horizon-accounting
// regression test: a job in service across the horizon must contribute
// only its in-window portion, not its whole service demand charged at
// start (which the min(u,1) clamp used to mask).
func TestUtilizationClipsJobsStraddlingHorizon(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	e.At(500, func() { q.Arrive(Job{ID: 1, Cost: 1000}) })
	e.Run(1000)
	// In service 500..1500, window is [0, 1000]: exactly half the
	// window is busy. Whole-job charging would have claimed 100%.
	if u := q.Utilization(1000); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5 (in-window portion only)", u)
	}
	// The full-demand counter still reports the whole job.
	if q.BusyCycles != 1000 {
		t.Errorf("BusyCycles = %v, want the full 1000 service demand", q.BusyCycles)
	}
	// After the job drains, a horizon covering it sees 1000/1500.
	e.RunUntilIdle()
	if u := q.Utilization(1500); u != 1000.0/1500 {
		t.Errorf("utilization(1500) = %v, want %v", u, 1000.0/1500)
	}
}

// TestUtilizationIdleTailCounts pins the other horizon edge: capacity
// idle between the last completion and the horizon must dilute
// utilization.
func TestUtilizationIdleTailCounts(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 2)
	q.Arrive(Job{ID: 1, Cost: 400})
	q.Arrive(Job{ID: 2, Cost: 400})
	e.Run(2000)
	// 800 busy server-cycles over 2×2000 capacity.
	if u := q.Utilization(2000); u != 0.2 {
		t.Errorf("utilization = %v, want 0.2", u)
	}
}

// TestWaitingRingWrapsAndReuses exercises the ring buffer across the
// wrap boundary: interleaved arrivals and completions far beyond the
// ring's capacity must preserve FIFO order.
func TestWaitingRingWrapsAndReuses(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	var done []uint64
	q.OnDone = func(j Job) { done = append(done, j.ID) }
	// Feed 100 jobs spaced at half the service time: the backlog grows
	// and drains through many ring wraps.
	for i := 0; i < 100; i++ {
		id := uint64(i + 1)
		e.At(cycles.Cycles(i)*50, func() { q.Arrive(Job{ID: id, Cost: 100}) })
	}
	e.RunUntilIdle()
	if len(done) != 100 {
		t.Fatalf("completed %d jobs, want 100", len(done))
	}
	for i, id := range done {
		if id != uint64(i+1) {
			t.Fatalf("completion %d has id %d, want FIFO order", i, id)
		}
	}
}

// TestTakeWaitingAcrossWrap pins TakeWaiting's ordering after the ring
// head has advanced past the wrap point.
func TestTakeWaitingAcrossWrap(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	for i := 1; i <= 11; i++ {
		q.Arrive(Job{ID: uint64(i), Cost: 100}) // 1 in service, 2..11 waiting
	}
	e.Run(500) // jobs 1..5 complete: the ring head advances to slot 5
	for i := 12; i <= 21; i++ {
		q.Arrive(Job{ID: uint64(i), Cost: 100}) // storage wraps (cap 16)
	}
	got := q.TakeWaiting()
	if len(got) != 15 {
		t.Fatalf("took %d waiting jobs, want 15", len(got))
	}
	for i, j := range got {
		if j.ID != uint64(i+7) {
			t.Fatalf("waiting[%d].ID = %d, want FIFO order starting at 7", i, j.ID)
		}
	}
	if q.Depth() != 1 {
		t.Errorf("depth after TakeWaiting = %d, want 1 (the in-service job)", q.Depth())
	}
	if got2 := q.TakeWaiting(); got2 != nil {
		t.Errorf("second TakeWaiting = %v, want nil", got2)
	}
}

// TestEngineFiredCounts pins the dispatch counter both forms feed.
func TestEngineFiredCounts(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "s", 1)
	e.At(1, func() {})
	q.Arrive(Job{Cost: 5}) // direct admission: the finish is the event
	e.RunUntilIdle()
	if e.Fired() != 2 {
		t.Errorf("fired = %d, want 2 (one func event, one completion)", e.Fired())
	}
}
