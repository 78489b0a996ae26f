// Package netsim models the network data path: per-packet processing
// stations, wire segments, and the load-balancing topologies of §5.7
// (HAProxy vs IPVS NAT vs IPVS direct routing), plus the iperf bulk
// transfer model used by Fig. 5.
//
// Two views of the same pipeline coexist. Bottleneck is the closed-form
// capacity merge: sustained throughput is set by the most loaded
// station. Simulate runs the pipeline as station queues on the
// discrete-event engine (internal/sim), so the bottleneck *emerges*
// from queueing — the saturated station is the one whose utilization
// pins at 1 — and end-to-end tail latency under a given offered rate
// becomes observable. This matches how the paper's load-balancer
// experiment behaves ("the load balancer was the bottleneck ... with
// direct routing the bottleneck shifted to the NGINX servers").
package netsim

import (
	"fmt"
	"math"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// Station is one CPU-bound processing stage: a proxy, a backend server,
// a kernel forwarding path.
type Station struct {
	Name string
	// CostPerReq is the CPU consumed at this station per request.
	CostPerReq cycles.Cycles
	// Cores is the CPU capacity assigned to the station.
	Cores float64
}

// Capacity returns the station's maximum requests per second.
func (s Station) Capacity() float64 {
	if s.CostPerReq == 0 {
		return 0
	}
	return s.Cores * cycles.Hz / float64(s.CostPerReq)
}

// Pipeline is a request path across stations. Stations with the same
// Name share one CPU budget (e.g. a NAT-mode load balancer charged on
// both the request and response legs appears twice).
type Pipeline struct {
	Stations []Station
}

// mergedStation is one entry of the pipeline's same-name merge: costs
// of every appearance summed against one CPU budget, the budget taken
// from the first appearance. Bottleneck and Simulate both build on
// this one merge, so the closed-form capacity and the emergent
// queueing bottleneck can never drift apart.
type mergedStation struct {
	name  string
	cost  cycles.Cycles // per-request cost summed over appearances
	cores float64       // CPU budget, from the first appearance
}

// merged folds same-name stations, preserving first-appearance order.
func (p Pipeline) merged() []mergedStation {
	idx := map[string]int{}
	out := make([]mergedStation, 0, len(p.Stations))
	for _, s := range p.Stations {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, mergedStation{name: s.Name, cores: s.Cores})
		}
		out[i].cost += s.CostPerReq
	}
	return out
}

// Bottleneck returns the sustainable throughput (requests/s) and the
// limiting station's name. Replicated stations (Replicas > 1) are
// expressed by giving the station proportionally more cores before
// calling.
func (p Pipeline) Bottleneck() (float64, string, error) {
	if len(p.Stations) == 0 {
		return 0, "", fmt.Errorf("netsim: empty pipeline")
	}
	best := -1.0
	name := ""
	for _, m := range p.merged() {
		if m.cost == 0 {
			continue
		}
		cap := m.cores * cycles.Hz / float64(m.cost)
		if best < 0 || cap < best {
			best = cap
			name = m.name
		}
	}
	if best < 0 {
		return 0, "", fmt.Errorf("netsim: pipeline has no cost")
	}
	return best, name, nil
}

// Wire models link capacity for bulk transfers.
type Wire struct {
	GbitPerSec float64
	MTUBytes   int
}

// TenGbE is the paper's local-cluster interconnect.
func TenGbE() Wire { return Wire{GbitPerSec: 10, MTUBytes: 1500} }

// PacketsPerSec returns the wire's packet ceiling.
func (w Wire) PacketsPerSec() float64 {
	return w.GbitPerSec * 1e9 / 8 / float64(w.MTUBytes)
}

// IperfThroughput computes achievable bulk TCP throughput in Gbit/s
// when the sender and receiver each spend perPacket cycles of one core
// per MTU-sized packet, bounded by the wire.
func IperfThroughput(w Wire, senderPerPacket, receiverPerPacket cycles.Cycles) float64 {
	pps := w.PacketsPerSec()
	if senderPerPacket > 0 {
		pps = min(pps, cycles.Hz/float64(senderPerPacket))
	}
	if receiverPerPacket > 0 {
		pps = min(pps, cycles.Hz/float64(receiverPerPacket))
	}
	return pps * float64(w.MTUBytes) * 8 / 1e9
}

// StationStats is one station's view of a simulated run.
type StationStats struct {
	Name        string
	Utilization float64 // busy fraction of the station's capacity
	MeanDepth   float64 // time-weighted requests in system
	MaxDepth    int
}

// SimResult is the outcome of Pipeline.Simulate.
type SimResult struct {
	OfferedPerSec float64
	Throughput    float64 // requests/s completing the full pipeline
	Completed     uint64

	MeanUS float64 // end-to-end sojourn statistics
	P50US  float64
	P95US  float64
	P99US  float64

	// Bottleneck is the station with the highest utilization — under
	// overload, the one pinned at 1. It emerges from queueing rather
	// than being computed as a min over capacities.
	Bottleneck string
	Stations   []StationStats
}

// leg is one pipeline hop: which merged station serves it and at what
// cost (legs of a fractional-core station carry scaled cost so the
// single queue keeps the station's aggregate capacity).
type leg struct {
	q    *sim.Queue
	cost cycles.Cycles
}

// Simulate drives the pipeline with Poisson arrivals at ratePerSec for
// a virtual duration, each request visiting every station in order.
// Same-name stations share one queue (and one CPU budget), exactly as
// Bottleneck merges them. Runs are deterministic for a fixed seed.
func (p Pipeline) Simulate(ratePerSec, seconds float64, seed uint64) (*SimResult, error) {
	if len(p.Stations) == 0 {
		return nil, fmt.Errorf("netsim: empty pipeline")
	}
	if ratePerSec <= 0 || seconds <= 0 {
		return nil, fmt.Errorf("netsim: simulate needs a positive rate and duration")
	}
	eng := sim.NewEngine()
	horizon := cycles.FromSeconds(seconds)

	// Build one queue per merged station — the same merge Bottleneck
	// uses, so the two views agree on budgets by construction.
	queues := map[string]*sim.Queue{}
	scale := map[string]float64{}
	var order []*sim.Queue
	anyCost := false
	for _, m := range p.merged() {
		// Whole cores become real servers; fractional capacity becomes
		// one server with service times scaled by 1/cores, which
		// preserves the station's aggregate rate. A station with no
		// cores has no capacity at all — Bottleneck prices it at zero,
		// so here its legs take longer than any horizon and nothing
		// ever completes through it.
		servers := int(m.cores)
		sc := 1.0
		switch {
		case m.cores <= 0:
			servers = 1
			sc = 0
		case float64(servers) != m.cores || servers < 1:
			servers = 1
			sc = 1 / m.cores
		}
		q := sim.NewQueue(eng, m.name, servers)
		queues[m.name] = q
		scale[m.name] = sc
		order = append(order, q)
		if m.cost > 0 {
			anyCost = true
		}
	}
	if !anyCost {
		return nil, fmt.Errorf("netsim: pipeline has no cost")
	}
	legs := make([]leg, 0, len(p.Stations))
	for _, s := range p.Stations {
		cost := s.CostPerReq
		if sc := scale[s.Name]; sc == 0 {
			if cost > 0 {
				cost = horizon + 1 // zero-capacity station: never finishes
			}
		} else if sc != 1 {
			cost = cycles.Cycles(float64(cost) * sc)
		}
		legs = append(legs, leg{q: queues[s.Name], cost: cost})
	}

	var latency obs.Histogram
	var completed uint64
	route := func(j sim.Job) {
		j.Stage++
		if j.Stage < len(legs) {
			j.Cost = legs[j.Stage].cost
			legs[j.Stage].q.Arrive(j)
			return
		}
		completed++
		latency.Observe(eng.Now() - j.Born)
	}
	for _, q := range order {
		q.OnDone = route
	}

	eng.DriveArrivals(sim.PoissonRate(ratePerSec), sim.NewRand(seed), horizon, func(id uint64) {
		legs[0].q.Arrive(sim.Job{ID: id, Cost: legs[0].cost, Born: eng.Now()})
	})
	eng.Run(horizon)

	res := &SimResult{
		OfferedPerSec: ratePerSec,
		Throughput:    float64(completed) / seconds,
		Completed:     completed,
		MeanUS:        latency.MeanMicros(),
		P50US:         latency.Quantile(0.50).Micros(),
		P95US:         latency.Quantile(0.95).Micros(),
		P99US:         latency.Quantile(0.99).Micros(),
	}
	best := math.Inf(-1)
	for _, q := range order {
		u := q.Utilization(horizon)
		res.Stations = append(res.Stations, StationStats{
			Name:        q.Name,
			Utilization: u,
			MeanDepth:   q.MeanDepth(horizon),
			MaxDepth:    q.MaxDepth(),
		})
		if u > best {
			best = u
			res.Bottleneck = q.Name
		}
	}
	return res, nil
}
