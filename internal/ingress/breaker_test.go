package ingress

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

func testBreaker(probeP float64) *Breaker {
	return NewBreaker(RoutePolicy{
		BreakerFailureRate: 0.5,
		Timeout:            cycles.FromMicros(100),
	}.normalized().withProbeP(probeP))
}

// withProbeP is a test helper to pin the half-open admission odds.
func (p RoutePolicy) withProbeP(v float64) RoutePolicy {
	p.BreakerProbeP = v
	return p
}

// TestBreakerClosedToOpenToHalfOpenToClosed walks the happy recovery
// path: a bad window trips the breaker, the cooldown relaxes it to
// half-open, and enough probe successes re-close it.
func TestBreakerClosedToOpenToHalfOpenToClosed(t *testing.T) {
	b := testBreaker(1) // admit every half-open probe
	rng := sim.NewRand(1)
	if b.State(0) != BreakerClosed {
		t.Fatalf("initial state %v", b.State(0))
	}

	// 20-outcome window at 50% failure trips exactly at the boundary.
	for i := 0; i < 20; i++ {
		if !b.Admit(0, rng) {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Report(0, i%2 == 0)
	}
	if b.State(0) != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("after bad window: state %v opens %d", b.State(0), b.Opens())
	}

	// Open fails fast until the cooldown elapses.
	if b.Admit(1, rng) {
		t.Fatal("open breaker admitted a call")
	}
	if b.FastFails() != 1 {
		t.Fatalf("fast fails %d", b.FastFails())
	}
	cool := cycles.FromMicros(1000) // 10× the 100µs timeout
	if b.State(cool) != BreakerHalfOpen {
		t.Fatalf("after cooldown: %v", b.State(cool))
	}

	// Three consecutive probe successes re-close.
	for i := 0; i < 3; i++ {
		if !b.Admit(cool, rng) {
			t.Fatalf("half-open rejected probe %d at probeP=1", i)
		}
		b.Report(cool, true)
	}
	if b.State(cool) != BreakerClosed {
		t.Fatalf("after probes: %v", b.State(cool))
	}
}

// TestBreakerHalfOpenReOpens pins the relapse path: one failed probe
// in half-open re-opens the breaker and restarts the cooldown.
func TestBreakerHalfOpenReOpens(t *testing.T) {
	b := testBreaker(1)
	rng := sim.NewRand(1)
	for i := 0; i < 20; i++ {
		b.Report(0, false)
	}
	cool := cycles.FromMicros(1000)
	if b.State(cool) != BreakerHalfOpen {
		t.Fatalf("state %v", b.State(cool))
	}
	b.Admit(cool, rng)
	b.Report(cool, false)
	if b.State(cool) != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("after failed probe: state %v opens %d", b.State(cool), b.Opens())
	}
	// The cooldown restarted at the relapse instant.
	if b.State(cool+cycles.FromMicros(999)) != BreakerOpen {
		t.Fatal("cooldown did not restart")
	}
	if b.State(cool+cycles.FromMicros(1000)) != BreakerHalfOpen {
		t.Fatal("second cooldown never relaxed")
	}
	// An interrupted probe streak starts over: 2 ok, 1 fail, then 3 ok.
	at := cool + cycles.FromMicros(1000)
	b.Report(at, true)
	b.Report(at, true)
	b.Report(at, false)
	at += cycles.FromMicros(1000)
	b.Report(at, true)
	b.Report(at, true)
	if b.State(at) != BreakerHalfOpen {
		t.Fatalf("closed before the quota: %v", b.State(at))
	}
	b.Report(at, true)
	if b.State(at) != BreakerClosed {
		t.Fatalf("after full streak: %v", b.State(at))
	}
}

// TestBreakerHalfOpenShedsNonProbes verifies seeded probe admission:
// at probeP=0 every half-open call fails fast.
func TestBreakerHalfOpenShedsNonProbes(t *testing.T) {
	b := NewBreaker(RoutePolicy{
		BreakerFailureRate: 0.5, BreakerWindow: 4,
		BreakerCooldown: 100, BreakerProbeP: 1e-12, BreakerProbeQuota: 3,
	})
	rng := sim.NewRand(1)
	for i := 0; i < 4; i++ {
		b.Report(0, false)
	}
	for i := 0; i < 10; i++ {
		if b.Admit(200, rng) {
			t.Fatal("probeP≈0 admitted a call")
		}
	}
	if b.FastFails() != 10 {
		t.Fatalf("fast fails %d", b.FastFails())
	}
}

func TestBreakerOffIsNil(t *testing.T) {
	if NewBreaker(RoutePolicy{}) != nil {
		t.Fatal("zero policy built a breaker")
	}
}

// TestBreakerHotPathAllocs pins the breaker hot path at zero
// allocations per admitted call.
func TestBreakerHotPathAllocs(t *testing.T) {
	b := testBreaker(0.5)
	rng := sim.NewRand(1)
	now := cycles.Cycles(0)
	allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			now += 50
			if b.Admit(now, rng) {
				b.Report(now, now%3 != 0)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("breaker hot path allocates %v times in 1000 calls, want 0", allocs)
	}
}

// TestBreakerTripsAndFastFailsCalls is the integration path: an
// always-erroring replica trips the entry breaker, after which calls
// fail fast without touching the replica.
func TestBreakerTripsAndFastFailsCalls(t *testing.T) {
	r := newRig(t, 1, 1, 10_000, RoutePolicy{
		BreakerFailureRate: 0.5, BreakerWindow: 10,
		BreakerCooldown: cycles.FromSeconds(10), // never relaxes in-run
	})
	r.svc.SetErrorRate(0, 1, 42) // every attempt errors
	r.drive(100, 1_000_000)
	if r.g.Served() != 0 {
		t.Fatalf("served %d from an always-error replica", r.g.Served())
	}
	st := statsOf(r.g.Entry())
	if st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d", st.BreakerOpens)
	}
	// The first window's 10 calls reached the replica; everything after
	// the trip fast-failed.
	if r.qs[0].Arrived != 10 {
		t.Fatalf("replica saw %d attempts, want 10 (window) then fast fails", r.qs[0].Arrived)
	}
	if st.BreakerFastFails != 90 {
		t.Fatalf("fast fails = %d", st.BreakerFastFails)
	}
	if st.Errors != 10 {
		t.Fatalf("errors = %d", st.Errors)
	}
}

// TestShedDepthBoundsBacklog: with shedding armed, calls arriving over
// a standing backlog fail fast instead of queueing without bound.
func TestShedDepthBoundsBacklog(t *testing.T) {
	r := newRig(t, 1, 1, 1_000_000_000, RoutePolicy{ShedDepth: 4})
	for i := 0; i < 20; i++ {
		id := uint64(i + 1)
		r.eng.At(cycles.Cycles(i), func() { r.g.Admit(id) })
	}
	r.eng.RunUntilIdle()
	st := statsOf(r.g.Entry())
	if st.Shed == 0 {
		t.Fatal("no calls shed over a deep backlog")
	}
	// 1 in service + at most ShedDepth+1 queued before the valve closes.
	if got := r.qs[0].Arrived; got > 6 {
		t.Fatalf("replica accepted %d arrivals past the shed depth", got)
	}
	if st.Calls != 20 || st.Shed != 20-uint64(r.qs[0].Arrived) {
		t.Fatalf("calls %d shed %d arrived %d", st.Calls, st.Shed, r.qs[0].Arrived)
	}
}

// TestPartitionedReplicaRecoversViaTimeout: attempts to an unreachable
// replica are lost in the network; timeouts reap them and retries land
// on the healthy replica.
func TestPartitionedReplicaRecoversViaTimeout(t *testing.T) {
	r := newRig(t, 1, 2, 10_000, RoutePolicy{
		LB: RoundRobin, Timeout: cycles.FromMicros(50), Retries: 2,
	})
	r.svc.SetUnreachable(0, true)
	r.drive(40, cycles.FromMicros(200))
	if r.qs[0].Arrived != 0 {
		t.Fatalf("partitioned replica received %d arrivals", r.qs[0].Arrived)
	}
	if r.g.Served() != 40 {
		t.Fatalf("served %d of 40 despite retries around the partition", r.g.Served())
	}
	st := statsOf(r.g.Entry())
	if st.Timeouts == 0 || st.Retries != st.Timeouts {
		t.Fatalf("timeouts %d retries %d, want every lost attempt reaped and retried", st.Timeouts, st.Retries)
	}
}

// TestGrayErrorRetriesThenServes: a gray replica's errors feed the
// retry ladder like timeouts do, deterministically per seed.
func TestGrayErrorRetriesThenServes(t *testing.T) {
	run := func() (served uint64, errors uint64) {
		r := newRig(t, 9, 2, 10_000, RoutePolicy{LB: RoundRobin, Retries: 3})
		r.svc.SetErrorRate(0, 0.5, 77)
		r.drive(200, 1_000_000)
		return r.g.Served(), statsOf(r.g.Entry()).Errors
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("gray coins not deterministic: %d/%d vs %d/%d", s1, e1, s2, e2)
	}
	if e1 == 0 {
		t.Fatal("no gray errors at rate 0.5")
	}
	if s1 != 200 {
		t.Fatalf("served %d of 200 with 3 retries against one gray replica", s1)
	}
}
