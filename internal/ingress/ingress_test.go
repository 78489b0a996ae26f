package ingress

import (
	"encoding/json"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// rig is one service behind an entry edge — the minimal ingress shape
// most tests need.
type rig struct {
	eng *sim.Engine
	g   *Graph
	svc *Service
	qs  []*sim.Queue
}

func newRig(t testing.TB, seed uint64, replicas int, cost cycles.Cycles, pol RoutePolicy) *rig {
	t.Helper()
	eng := sim.NewEngine()
	g := NewGraph(eng, seed)
	svc := g.AddService("app", Sequential)
	qs := make([]*sim.Queue, replicas)
	for i := range qs {
		qs[i] = sim.NewQueue(eng, "app", 1)
		svc.AddBackend(qs[i], cost, 1, nil)
	}
	g.SetEntry(svc, pol)
	return &rig{eng: eng, g: g, svc: svc, qs: qs}
}

// drive admits n requests paced far enough apart that each completes
// before the next arrives (no queueing), then drains.
func (r *rig) drive(n int, gap cycles.Cycles) {
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		r.eng.At(cycles.Cycles(i)*gap, func() { r.g.Admit(id) })
	}
	r.eng.RunUntilIdle()
}

func TestRoundRobinSpreadsExactly(t *testing.T) {
	r := newRig(t, 1, 4, 10_000, RoutePolicy{LB: RoundRobin})
	r.drive(400, 1_000_000)
	for i, q := range r.qs {
		if q.Arrived != 100 {
			t.Errorf("backend %d: %d arrivals, want exactly 100 under round-robin", i, q.Arrived)
		}
	}
	if r.g.Served() != 400 {
		t.Fatalf("served %d of 400", r.g.Served())
	}
}

func TestWeightedFollowsWeights(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGraph(eng, 1)
	svc := g.AddService("app", Sequential)
	qa := sim.NewQueue(eng, "a", 1)
	qb := sim.NewQueue(eng, "b", 1)
	svc.AddBackend(qa, 10_000, 3, nil)
	svc.AddBackend(qb, 10_000, 1, nil)
	g.SetEntry(svc, RoutePolicy{LB: Weighted})
	for i := 0; i < 400; i++ {
		id := uint64(i + 1)
		eng.At(cycles.Cycles(i)*1_000_000, func() { g.Admit(id) })
	}
	eng.RunUntilIdle()
	if qa.Arrived != 300 || qb.Arrived != 100 {
		t.Errorf("weighted 3:1 split gave %d:%d, want 300:100", qa.Arrived, qb.Arrived)
	}
}

func TestJSQAvoidsBusyReplica(t *testing.T) {
	r := newRig(t, 1, 2, 10_000, RoutePolicy{LB: JSQ})
	// Pin a standing backlog on replica 0, then admit with both free.
	for i := 0; i < 50; i++ {
		r.qs[0].Arrive(sim.Job{ID: ^uint64(i), Cost: 1_000_000_000})
	}
	base := r.qs[0].Arrived
	r.drive(100, 1_000_000)
	if r.qs[0].Arrived != base {
		t.Errorf("JSQ sent %d requests to the deep replica", r.qs[0].Arrived-base)
	}
	if r.qs[1].Arrived != 100 {
		t.Errorf("short replica got %d of 100", r.qs[1].Arrived)
	}
}

func TestPowerOfTwoUsesAllReplicasDeterministically(t *testing.T) {
	counts := func(seed uint64) []uint64 {
		r := newRig(t, seed, 4, 10_000, RoutePolicy{LB: PowerOfTwo})
		r.drive(1000, 1_000_000)
		out := make([]uint64, len(r.qs))
		for i, q := range r.qs {
			out[i] = q.Arrived
		}
		return out
	}
	a, b := counts(7), counts(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at replica %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Errorf("replica %d never chosen by p2c", i)
		}
	}
}

func TestDownReplicaGetsNoTraffic(t *testing.T) {
	for _, lb := range []Policy{RoundRobin, Weighted, JSQ, PowerOfTwo} {
		r := newRig(t, 3, 3, 10_000, RoutePolicy{LB: lb})
		r.svc.SetDown(1, true)
		r.drive(300, 1_000_000)
		if r.qs[1].Arrived != 0 {
			t.Errorf("%v: down replica got %d arrivals", lb, r.qs[1].Arrived)
		}
		if r.g.Served() != 300 {
			t.Errorf("%v: served %d of 300 with one replica down", lb, r.g.Served())
		}
	}
}

func TestKeepAliveAmortizesHandshakes(t *testing.T) {
	const setup = cycles.Cycles(50_000)
	perReq := newRig(t, 1, 2, 10_000, RoutePolicy{LB: RoundRobin, ConnSetup: setup})
	perReq.drive(200, 1_000_000)
	ka := newRig(t, 1, 2, 10_000, RoutePolicy{LB: RoundRobin, ConnSetup: setup, KeepAlive: true, KeepAliveReqs: 10})
	ka.drive(200, 1_000_000)

	if got := perReq.g.Entry().handshakes; got != 200 {
		t.Errorf("per-request connections: %d handshakes, want 200", got)
	}
	// 100 requests per replica at 10 per connection = 10 handshakes each.
	if got := ka.g.Entry().handshakes; got != 20 {
		t.Errorf("keep-alive: %d handshakes, want 20", got)
	}
	// The amortized cost must show up in backend busy time.
	perBusy := perReq.qs[0].BusyCycles + perReq.qs[1].BusyCycles
	kaBusy := ka.qs[0].BusyCycles + ka.qs[1].BusyCycles
	wantPer := cycles.Cycles(200*10_000) + 200*setup
	wantKA := cycles.Cycles(200*10_000) + 20*setup
	if perBusy != wantPer || kaBusy != wantKA {
		t.Errorf("busy cycles per-request=%d (want %d) keep-alive=%d (want %d)",
			perBusy, wantPer, kaBusy, wantKA)
	}
}

func TestTimeoutExhaustsRetriesThenFails(t *testing.T) {
	// One replica that can never answer inside the deadline.
	r := newRig(t, 1, 1, cycles.FromMicros(500), RoutePolicy{
		LB: RoundRobin, Timeout: cycles.FromMicros(100),
		Retries: 2, Backoff: cycles.FromMicros(10),
	})
	r.g.Admit(1)
	r.eng.Run(cycles.FromSeconds(1))
	e := r.g.Entry()
	if r.g.Failed() != 1 || e.failed != 1 {
		t.Fatalf("call should fail after retries: failed=%d", r.g.Failed())
	}
	if e.timeouts != 3 || e.retries != 2 {
		t.Errorf("timeouts=%d retries=%d, want 3 and 2", e.timeouts, e.retries)
	}
	// The abandoned attempts still burned backend cycles: wasted work.
	st := r.g.ServiceStats(r.eng.Now())
	if st[0].Wasted != 3 {
		t.Errorf("wasted completions = %d, want 3", st[0].Wasted)
	}
}

func TestRetryBudgetDeniesStorm(t *testing.T) {
	pol := RoutePolicy{
		LB: RoundRobin, Timeout: cycles.FromMicros(100),
		Retries: 3, RetryBudget: 0.1,
	}
	r := newRig(t, 1, 1, cycles.FromMicros(500), pol)
	for i := 0; i < 50; i++ {
		id := uint64(i + 1)
		r.eng.At(cycles.FromMicros(float64(i)*1000), func() { r.g.Admit(id) })
	}
	r.eng.Run(cycles.FromSeconds(1))
	e := r.g.Entry()
	if e.budgetDenied == 0 {
		t.Fatal("budget never denied a retry despite every attempt timing out")
	}
	// 50 calls accrue 5 tokens; retries are bounded by them.
	if e.retries > 5 {
		t.Errorf("budget 0.1 allowed %d retries for 50 calls, want ≤ 5", e.retries)
	}
}

func TestNoBackendFailsCall(t *testing.T) {
	r := newRig(t, 1, 1, 10_000, RoutePolicy{LB: JSQ})
	r.svc.SetDown(0, true)
	r.g.Admit(1)
	r.eng.RunUntilIdle()
	if r.g.Failed() != 1 || r.g.Entry().noBackend != 1 {
		t.Fatalf("failed=%d noBackend=%d, want 1/1", r.g.Failed(), r.g.Entry().noBackend)
	}
}

// hedgeRig: 4 replicas, one pathologically slow, round-robin so the
// slow one keeps receiving primaries.
func hedgeRig(t testing.TB, hedgeP float64) *rig {
	pol := RoutePolicy{LB: RoundRobin, HedgeP: hedgeP}
	r := newRig(t, 11, 4, cycles.FromMicros(10), pol)
	r.svc.SetCost(3, cycles.FromMicros(300))
	return r
}

func TestHedgingCutsP99(t *testing.T) {
	run := func(hedgeP float64) (*rig, RouteStats) {
		r := hedgeRig(t, hedgeP)
		r.drive(4000, cycles.FromMicros(50))
		return r, statsOf(r.g.Entry())
	}
	_, plain := run(0)
	rh, hedged := run(0.9)
	if rh.g.Entry().hedges == 0 || rh.g.Entry().hedgeWins == 0 {
		t.Fatalf("hedging never engaged: hedges=%d wins=%d",
			rh.g.Entry().hedges, rh.g.Entry().hedgeWins)
	}
	if hedged.P99US >= plain.P99US/2 {
		t.Errorf("hedged p99 %.1fus not measurably below plain p99 %.1fus",
			hedged.P99US, plain.P99US)
	}
	// The price of hedging is wasted work at the replicas.
	st := rh.g.ServiceStats(rh.eng.Now())
	if st[0].Wasted == 0 {
		t.Error("hedge losers should show up as wasted completions")
	}
}

// TestHedgeAvoidsHighIndexPrimary: the hedge must land on a replica
// other than the primary's even when the primary's index does not fit
// in 16 bits. Replica 0 holds a standing backlog and replica 32768 is
// idle but slow, every replica between them is down: JSQ sends the
// primary to 32768 and picks it again for the hedge, so only the
// "avoid the primary" fallback moves the hedge to replica 0.
func TestHedgeAvoidsHighIndexPrimary(t *testing.T) {
	const hi = 1 << 15
	cost := cycles.FromMicros(10)
	r := newRig(t, 1, hi+1, cost, RoutePolicy{LB: JSQ, HedgeP: 0.5})
	for i := 1; i < hi; i++ {
		r.svc.SetDown(i, true)
	}
	r.drive(hedgeMinSamples, cycles.FromMicros(50)) // warm the hedge quantile
	for i := 0; i < 50; i++ {
		r.qs[0].Arrive(sim.Job{ID: ^uint64(i), Cost: 1_000_000_000})
	}
	r.svc.SetCost(hi, 100*cost) // the primary is still out when the hedge fires

	lo0, hiN := r.qs[0].Arrived, r.qs[hi].Arrived
	r.g.Admit(1 << 20)
	r.eng.Run(r.eng.Now() + 20*cost)
	if h := r.g.Entry().hedges; h != 1 {
		t.Fatalf("hedges = %d, want 1", h)
	}
	if got := r.qs[hi].Arrived - hiN; got != 1 {
		t.Errorf("replica %d received %d attempts, want only the primary", hi, got)
	}
	if got := r.qs[0].Arrived - lo0; got != 1 {
		t.Errorf("replica 0 received %d attempts, want the hedge", got)
	}
}

// wire builds ingress -> app -> {cache, db} with the given cache hit
// ratio: the canonical tiered-cache chain.
func wire(seed uint64, hit float64, cacheReplicas int) (*sim.Engine, *Graph, *Edge, *Edge) {
	eng := sim.NewEngine()
	g := NewGraph(eng, seed)
	app := g.AddService("app", Sequential)
	cache := g.AddService("cache", Sequential)
	db := g.AddService("db", Sequential)
	for i := 0; i < 2; i++ {
		app.AddBackend(sim.NewQueue(eng, "app", 1), 20_000, 1, nil)
		db.AddBackend(sim.NewQueue(eng, "db", 1), 80_000, 1, nil)
	}
	for i := 0; i < cacheReplicas; i++ {
		cache.AddBackend(sim.NewQueue(eng, "cache", 1), 5_000, 1, nil)
	}
	toCache := g.Connect(app, cache, RoutePolicy{LB: RoundRobin}, hit)
	toDB := g.Connect(app, db, RoutePolicy{LB: RoundRobin}, 0)
	g.SetEntry(app, RoutePolicy{LB: RoundRobin})
	return eng, g, toCache, toDB
}

func TestTieredCacheShortCircuits(t *testing.T) {
	eng, g, toCache, toDB := wire(5, 1.0, 2)
	for i := 0; i < 200; i++ {
		id := uint64(i + 1)
		eng.At(cycles.Cycles(i)*1_000_000, func() { g.Admit(id) })
	}
	eng.RunUntilIdle()
	if toCache.calls != 200 || toDB.calls != 0 {
		t.Errorf("hit=1.0: cache calls %d (want 200), db calls %d (want 0)",
			toCache.calls, toDB.calls)
	}
	if g.Served() != 200 {
		t.Fatalf("served %d of 200", g.Served())
	}

	eng2, g2, toCache2, toDB2 := wire(5, 0.0, 2)
	for i := 0; i < 200; i++ {
		id := uint64(i + 1)
		eng2.At(cycles.Cycles(i)*1_000_000, func() { g2.Admit(id) })
	}
	eng2.RunUntilIdle()
	// hit = 0 but still registered with hit-capable semantics only when
	// hit > 0; a 0-hit edge is a hard dependency and never short-circuits.
	if toCache2.calls != 200 || toDB2.calls != 200 {
		t.Errorf("hit=0: cache calls %d, db calls %d, want 200 each",
			toCache2.calls, toDB2.calls)
	}
}

func TestSoftEdgeFailureDegradesToMiss(t *testing.T) {
	// Cache tier with no replicas up: every cache call fails, but the
	// edge is soft (hit > 0), so requests fall through to the db.
	eng, g, toCache, toDB := wire(5, 0.9, 0)
	for i := 0; i < 100; i++ {
		id := uint64(i + 1)
		eng.At(cycles.Cycles(i)*1_000_000, func() { g.Admit(id) })
	}
	eng.RunUntilIdle()
	if toCache.failed != 100 {
		t.Fatalf("cache edge failed %d, want 100", toCache.failed)
	}
	if toDB.calls != 100 || g.Served() != 100 {
		t.Errorf("db calls %d served %d, want 100/100 despite cache outage",
			toDB.calls, g.Served())
	}
}

func TestHardEdgeFailurePropagatesToRoot(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGraph(eng, 1)
	app := g.AddService("app", Sequential)
	db := g.AddService("db", Sequential) // no replicas: always fails
	app.AddBackend(sim.NewQueue(eng, "app", 1), 10_000, 1, nil)
	g.Connect(app, db, RoutePolicy{LB: RoundRobin}, 0)
	g.SetEntry(app, RoutePolicy{LB: RoundRobin})
	g.Admit(1)
	eng.RunUntilIdle()
	if g.Failed() != 1 || g.Served() != 0 {
		t.Fatalf("hard downstream failure must fail the request: served=%d failed=%d",
			g.Served(), g.Failed())
	}
}

func TestFanOutJoinsAllBranches(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGraph(eng, 1)
	app := g.AddService("app", FanOut)
	left := g.AddService("left", Sequential)
	right := g.AddService("right", Sequential)
	app.AddBackend(sim.NewQueue(eng, "app", 1), 10_000, 1, nil)
	left.AddBackend(sim.NewQueue(eng, "left", 1), 30_000, 1, nil)
	right.AddBackend(sim.NewQueue(eng, "right", 1), 90_000, 1, nil)
	g.Connect(app, left, RoutePolicy{LB: RoundRobin}, 0)
	g.Connect(app, right, RoutePolicy{LB: RoundRobin}, 0)
	entry := g.SetEntry(app, RoutePolicy{LB: RoundRobin})
	g.Admit(1)
	eng.RunUntilIdle()
	if g.Served() != 1 {
		t.Fatalf("fan-out request did not complete")
	}
	// The join waits for the slow branch: 10k at app + 90k at right.
	if got, want := entry.lat.Max(), cycles.Cycles(100_000); got != want {
		t.Errorf("fan-out latency %d, want %d (slowest branch)", got, want)
	}
}

func TestAttemptLostRetriesElsewhere(t *testing.T) {
	pol := RoutePolicy{LB: JSQ, Retries: 1}
	r := newRig(t, 1, 2, cycles.FromMicros(100), pol)
	// Fill replica 0 so the next arrival waits behind it.
	r.qs[0].Arrive(sim.Job{ID: ^uint64(0), Cost: cycles.FromMicros(400)})
	r.qs[1].Arrive(sim.Job{ID: ^uint64(1), Cost: cycles.FromMicros(400)})
	r.qs[1].Arrive(sim.Job{ID: ^uint64(2), Cost: cycles.FromMicros(400)})
	r.g.Admit(1) // JSQ -> replica 0, waits
	// Replica 0's node dies: its backlog is dropped.
	r.svc.SetDown(0, true)
	for _, j := range r.qs[0].TakeWaiting() {
		r.g.AttemptLost(j)
	}
	r.eng.RunUntilIdle()
	e := r.g.Entry()
	if e.lost != 1 || e.retries != 1 {
		t.Fatalf("lost=%d retries=%d, want 1/1", e.lost, e.retries)
	}
	if r.g.Served() != 1 {
		t.Errorf("request should survive the lost backlog via retry: served=%d", r.g.Served())
	}
}

// TestGraphReportDeterminism: identical seeds produce byte-identical
// route and service stats; the golden tests one layer up rely on it.
func TestGraphReportDeterminism(t *testing.T) {
	snapshot := func(seed uint64) string {
		pol := RoutePolicy{
			LB: PowerOfTwo, Timeout: cycles.FromMicros(150),
			Retries: 2, Backoff: cycles.FromMicros(20), RetryBudget: 0.2, HedgeP: 0.95,
			ConnSetup: 30_000, KeepAlive: true, KeepAliveReqs: 16,
		}
		r := newRig(t, seed, 4, cycles.FromMicros(30), pol)
		r.svc.SetCost(2, cycles.FromMicros(120))
		horizon := cycles.FromSeconds(0.02)
		rng := sim.NewRand(seed)
		r.eng.DriveArrivals(sim.PoissonRate(60_000), rng, horizon, func(id uint64) { r.g.Admit(id) })
		r.eng.Run(horizon)
		routes, _ := json.Marshal(r.g.RouteStats())
		svcs, _ := json.Marshal(r.g.ServiceStats(horizon))
		return string(routes) + string(svcs)
	}
	a, b := snapshot(9), snapshot(9)
	if a != b {
		t.Fatalf("same seed, different stats:\n%s\nvs\n%s", a, b)
	}
	if c := snapshot(10); c == a {
		t.Error("different seed produced identical stats — rng not wired through")
	}
}
