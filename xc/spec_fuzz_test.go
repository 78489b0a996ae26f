package xc

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// specBytes hands out a fuzz input one byte at a time, then zeros.
type specBytes struct {
	data []byte
	bad  []string // the invalid choices made so far
}

func (b *specBytes) next() byte {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v
}

// choice is one candidate value for a spec field; bad marks a value
// the spec must reject.
type choice[T any] struct {
	v   T
	bad bool
}

// pick takes the next byte's choice among cs and notes it when it is
// invalid.
func pick[T any](b *specBytes, field string, cs ...choice[T]) T {
	c := cs[int(b.next())%len(cs)]
	if c.bad {
		b.bad = append(b.bad, fmt.Sprintf("%s %v", field, c.v))
	}
	return c.v
}

func ok[T any](v T) choice[T]  { return choice[T]{v: v} }
func bad[T any](v T) choice[T] { return choice[T]{v: v, bad: true} }

// fuzzIngress builds a small route spec, or nil.
func fuzzIngress(b *specBytes) *IngressSpec {
	if b.next()%2 == 0 {
		return nil
	}
	in := Ingress().Policy(pick(b, "lb", ok(RoundRobin), ok(WeightedRR), ok(LeastQueue), ok(PowerOfTwo)))
	in.Retries(int(b.next() % 3))
	in.TimeoutMicros(pick(b, "timeout", ok(0.0), ok(30.0), ok(200.0), bad(math.NaN()), bad(-1.0)))
	in.Hedge(pick(b, "hedge", ok(0.0), ok(0.9), bad(1.5)))
	if b.next()%2 == 0 {
		in.KeepAlive(int(b.next() % 4))
	}
	return in
}

// fuzzTraffic builds a short load: a closed loop or a modest open
// loop, one or two virtual milliseconds long.
func fuzzTraffic(b *specBytes) *TrafficSpec {
	t := Traffic().Seed(uint64(b.next()))
	t.Duration(pick(b, "duration", ok(0.001), ok(0.002)))
	if rate := pick(b, "rate", ok(0.0), ok(200_000.0), ok(2_000_000.0)); rate > 0 {
		t.Rate(rate)
	} else {
		t.Connections(pick(b, "connections", ok(0), ok(3), ok(12)))
	}
	return t
}

// checkServe serves a spec with no invalid choice twice and requires
// the same JSON both times. The first error ends the check when
// unfit(err) holds, and fails it otherwise.
func checkServe(t *testing.T, serve func() ([]byte, error), unfit func(error) bool) {
	t.Helper()
	first, err := serve()
	if err != nil {
		if unfit(err) {
			return
		}
		t.Fatal(err)
	}
	again, err := serve()
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("rerun differs:\n%s\n---\n%s", first, again)
	}
}

// clusterSpecSeeds cover each field's valid and invalid choices.
var clusterSpecSeeds = [][]byte{
	{},
	{1, 2, 1, 4, 1, 1, 1, 0, 0, 1, 1, 1, 3, 2, 1, 0, 1, 2, 9, 1, 1},
	{2, 4, 2, 6, 2, 2, 0, 1, 1, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 2},
	{0, 3, 1, 2, 3, 3, 0, 2},          // policy 9
	{0, 3, 1, 2, 0, 3, 0, 0, 0, 1, 3}, // SLO NaN, epoch NaN
	{0, 3, 1, 2, 0, 0, 1, 3, 0, 2, 4}, // fail node +Inf, epoch +Inf
	{0, 3, 1, 2, 0, 0, 0, 1, 2, 1, 0}, // fail node with a chaos plan
}

// FuzzClusterServe serves small fleet specs end to end: every spec
// with an invalid choice must fail, no spec may panic, and a spec that
// serves must serve the same JSON again.
func FuzzClusterServe(f *testing.F) {
	for _, s := range clusterSpecSeeds {
		f.Add(s)
	}
	c := MustNewCluster(XContainer)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &specBytes{data: data}
		spec := ClusterSpec{
			Nodes:     1 + int(b.next()%3),
			MaxNodes:  int(b.next() % 5),
			NodeCores: pick(b, "node cores", ok(0), ok(2), ok(4)),
			Replicas:  int(b.next() % 7),
			Policy:    pick(b, "policy", ok(BinPack), ok(Spread), ok(LatencyAware), bad(PlacementPolicy(9))),
			SLOMillis: pick(b, "SLO", ok(0.0), ok(0.02), ok(1.0), bad(math.NaN()), bad(-1.0)),
			Autoscale: b.next()%2 == 1,
			FailNode:  pick(b, "fail node", ok(0.0), ok(0.0005), bad(math.NaN()), bad(math.Inf(1)), bad(-1.0)),
			Chaos: pick(b, "chaos", ok(""), ok("crash@0.0005"), ok("partition@0.0003+0.0003,frac=0.5"),
				ok("gray@0.0002+0.0005,count=1,err=0.3;probes,interval=0.0002"), ok("restart@0.0004,count=1")),
			Shards:      int(b.next() % 4),
			EpochMicros: pick(b, "epoch", ok(0.0), ok(20.0), ok(100.0), bad(math.NaN()), bad(math.Inf(1)), bad(-1.0)),
		}
		if spec.FailNode != 0 && spec.Chaos != "" {
			b.bad = append(b.bad, "fail node with a chaos plan")
		}
		spec.Ingress = fuzzIngress(b)
		tr := fuzzTraffic(b)
		serve := func() ([]byte, error) {
			rep, err := c.Serve(App("memcached"), spec, tr)
			if err != nil {
				return nil, err
			}
			return rep.JSON()
		}
		if len(b.bad) > 0 {
			if _, err := serve(); err == nil {
				t.Fatalf("accepted a spec with %v: %+v", b.bad, spec)
			}
			return
		}
		// A valid spec may still ask for more replicas than its nodes hold.
		checkServe(t, serve, func(err error) bool { return strings.Contains(err.Error(), "no capacity") })
	})
}

// graphSpecSeeds cover each field's valid and invalid choices.
var graphSpecSeeds = [][]byte{
	{},
	{2, 0, 1, 1, 0, 1, 0, 0, 1, 1, 2, 0, 1, 0, 1, 1},
	{1, 1, 2, 2, 1, 1, 1, 1, 2, 0, 0, 1, 1, 1, 1, 0, 3, 1, 0, 0, 1},
	{0, 0, 0, 0, 1, 2, 0, 0},    // brown-out factor NaN
	{0, 0, 0, 0, 1, 0, 1, 0},    // window start NaN
	{1, 0, 0, 0, 0, 0, 0, 0, 2}, // a cycle
}

// FuzzServeGraph serves small service graphs end to end, with the same
// properties as FuzzClusterServe.
func FuzzServeGraph(f *testing.F) {
	for _, s := range graphSpecSeeds {
		f.Add(s)
	}
	p := MustNewPlatform(XContainer)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &specBytes{data: data}
		g := ServiceGraph()
		n := 1 + int(b.next()%3)
		for i := 0; i < n; i++ {
			replicas := 1 + int(b.next()%3)
			s := g.Service(fmt.Sprintf("s%d", i), App(pick(b, "app", ok("nginx"), ok("memcached"), ok("redis"))), replicas)
			s.Cores(int(b.next() % 3))
			if b.next()%4 == 1 {
				s.FanOut()
			}
			switch b.next() % 4 {
			case 1:
				r := pick(b, "fault replica", ok(0), ok(replicas-1), bad(replicas))
				factor := pick(b, "brown-out factor", ok(2.0), ok(0.5), bad(math.NaN()), bad(math.Inf(1)), bad(-1.0))
				from := pick(b, "window start", ok(0.0002), bad(math.NaN()), bad(-0.001))
				to := pick(b, "window end", ok(0.0008), ok(0.01), bad(0.0001))
				s.BrownOut(r, factor, from, to)
			case 2:
				s.Down(pick(b, "down replica", ok(0), bad(replicas)), 0.0003, pick(b, "down end", ok(0.0006), bad(math.Inf(1))))
			case 3:
				ws := make([]int, replicas)
				for k := range ws {
					ws[k] = 1 + k
				}
				s.Weights(pick(b, "weights", ok(ws), bad(append(ws, 1)))...)
			}
		}
		for i := 1; i < n; i++ {
			if b.next()%2 == 0 {
				g.Route(fmt.Sprintf("s%d", i-1), fmt.Sprintf("s%d", i), fuzzIngress(b))
			}
		}
		if b.next()%8 == 2 {
			loop := fmt.Sprintf("s%d", int(b.next())%n)
			g.Route(loop, loop, nil)
			b.bad = append(b.bad, "a cycle")
		}
		g.Entry(pick(b, "entry", ok("s0"), bad("ghost")), fuzzIngress(b))
		tr := fuzzTraffic(b)
		serve := func() ([]byte, error) {
			rep, err := p.ServeGraph(g, tr)
			if err != nil {
				return nil, err
			}
			return rep.JSON()
		}
		if len(b.bad) > 0 {
			if _, err := serve(); err == nil {
				t.Fatalf("accepted a graph with %v", b.bad)
			}
			return
		}
		checkServe(t, serve, func(error) bool { return false })
	})
}
