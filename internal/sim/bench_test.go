package sim

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

// service is the benchmark request cost: 10 µs of CPU per request.
const benchService = cycles.Cycles(29_000)

// benchClosed runs the repository's canonical traffic benchmark — the
// paper's own load-generator shape (ab/wrk/memtier): a saturating
// closed loop of 8 connections over an M/D/4 station for one virtual
// second, with the end-to-end latency histogram every consumer keeps.
// Returns the number of kernel events dispatched.
func benchClosed() uint64 {
	e := NewEngine()
	q := NewQueue(e, "bench", 4)
	var latency obs.Histogram
	horizon := cycles.FromSeconds(1)
	q.OnDone = func(j Job) {
		latency.Observe(e.Now() - j.Born)
		if e.Now() < horizon {
			q.Arrive(Job{ID: j.ID, Cost: benchService, Born: e.Now()})
		}
	}
	for c := 0; c < 8; c++ {
		q.Arrive(Job{ID: uint64(c + 1), Cost: benchService})
	}
	e.Run(horizon)
	return e.Fired()
}

// benchOpen runs the open-loop shape: Poisson arrivals at 80% load
// into the same station. Note the arrival sampling itself (one
// math.Log per request, bit-locked — byte-identical statistics forbid
// a faster approximation) is a large fixed cost shared by any kernel.
func benchOpen(seed uint64) uint64 {
	e := NewEngine()
	q := NewQueue(e, "bench", 4)
	var latency obs.Histogram
	q.OnDone = func(j Job) { latency.Observe(e.Now() - j.Born) }
	rate := 0.8 * 4 * float64(cycles.Hz) / float64(benchService)
	horizon := cycles.FromSeconds(1)
	e.DriveArrivals(PoissonRate(rate), NewRand(seed), horizon, func(id uint64) {
		q.Arrive(Job{ID: id, Cost: benchService, Born: e.Now()})
	})
	e.Run(horizon)
	return e.Fired()
}

// benchTimeout is the per-request deadline of the timeout benchmarks:
// 20 service times, far beyond the loop's two-service-time response.
const benchTimeout = 20 * benchService

// timeoutLoop is the ingress timer shape on the kernel alone: the
// closed loop of benchClosed, where every request also arms a timeout
// benchTimeout ahead. Requests finish long before their deadline, so
// each timeout fires stale, as on a healthy route.
type timeoutLoop struct {
	e       *Engine
	q       *Queue
	ref     HandlerRef
	out     [8]uint64 // per connection: its outstanding request, 0 if none
	n       uint64
	expired uint64
}

// newTimeoutLoop starts the loop's eight connections. With declare,
// the engine gets a lane for benchTimeout.
func newTimeoutLoop(declare bool) *timeoutLoop {
	e := NewEngine()
	l := &timeoutLoop{e: e, q: NewQueue(e, "bench", 4)}
	l.ref = e.Register(l)
	if declare {
		e.DeclareDelay(benchTimeout)
	}
	l.q.OnDone = func(j Job) {
		l.out[j.Stage] = 0
		l.issue(j.Stage)
	}
	for c := range l.out {
		l.issue(c)
	}
	return l
}

// issue sends connection c's next request and arms its timeout.
func (l *timeoutLoop) issue(c int) {
	l.n++
	l.out[c] = l.n
	l.q.Arrive(Job{ID: l.n, Cost: benchService, Born: l.e.Now(), Stage: c})
	l.e.Schedule(benchTimeout, l.ref, Job{ID: l.n, Stage: c})
}

// HandleEvent is a timeout: it expires its request only if the request
// is still outstanding.
func (l *timeoutLoop) HandleEvent(_ *Engine, j Job) {
	if l.out[j.Stage] == j.ID {
		l.expired++
	}
}

// reportEvents converts a benchmark's event total into the two kernel
// throughput metrics.
func reportEvents(b *testing.B, events uint64) {
	b.Helper()
	if events == 0 {
		b.Fatal("benchmark processed no events")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSimEngine measures the event kernel's hot path end to end —
// schedule, heap ops, queue dispatch, ring reuse, histogram observe —
// on the saturating closed-loop driver. The events/sec metric is the
// multiplier on every tier-2 experiment in the repository.
func BenchmarkSimEngine(b *testing.B) {
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += benchClosed()
	}
	b.StopTimer()
	reportEvents(b, events)
}

// BenchmarkSimEngineOpen measures the open-loop shape, including the
// (bit-locked) Poisson arrival sampling.
func BenchmarkSimEngineOpen(b *testing.B) {
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += benchOpen(uint64(i + 1))
	}
	b.StopTimer()
	reportEvents(b, events)
}

// BenchmarkSimEngineTimeouts measures the timer-heavy shape (half of
// all events are per-request timeouts) with the timeout delay left to
// the heap and with it declared as a fixed-delay lane.
func BenchmarkSimEngineTimeouts(b *testing.B) {
	for _, c := range []struct {
		name    string
		declare bool
	}{{"heap", false}, {"lanes", true}} {
		b.Run(c.name, func(b *testing.B) {
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := newTimeoutLoop(c.declare)
				l.e.Run(cycles.FromSeconds(1))
				events += l.e.Fired()
			}
			b.StopTimer()
			reportEvents(b, events)
		})
	}
}
