package workload

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// Observer is a single-engine run's observability state: one Stream
// (trace ring + auto-sealing sampler) fed from the event loop in
// nondecreasing virtual time, plus the cluster-layer root series
// (arrivals, served, erred) keyed exactly as the cluster front door
// keys them. TrafficLoad and the service-graph driver share it; only
// the root track's label differs.
type Observer struct {
	// Stream is the run's sink; Stream.Rec is its trace ring.
	Stream obs.Stream

	queueDepth               bool
	kArrive, kServed, kErred uint64
}

// NewObserver arms observability for a run to horizon, labelling the
// root track.
func NewObserver(cfg obs.Options, horizon cycles.Cycles, label string) *Observer {
	o := &Observer{
		queueDepth: cfg.QueueDepth,
		kArrive:    obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameArrive, 0),
		kServed:    obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameServed, 0),
		kErred:     obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameErred, 0),
	}
	o.Stream.Rec = obs.NewRecorder(cfg.RingCap)
	o.Stream.Rec.Label(obs.LayerCluster, 0, label)
	o.Stream.Smp = obs.NewSampler(cycles.FromMicros(cfg.WindowUS), horizon)
	o.Stream.Smp.AutoSeal = true
	return o
}

// TraceQueue labels one queue's track and, when asked for, wires its
// depth instrumentation.
func (o *Observer) TraceQueue(q *sim.Queue, id uint32) {
	o.Stream.Rec.Label(obs.LayerSim, id, q.Name)
	if o.queueDepth {
		q.Trace(&o.Stream,
			obs.Key(obs.KindCounter, obs.LayerSim, obs.NameEnq, id),
			obs.Key(obs.KindCounter, obs.LayerSim, obs.NameDeq, id))
	}
}

// Arrive counts one admission. Arrivals are series-only: one ring
// record per admission would double the trace volume for a constant
// counter track, and queue or span tracing already marks the instant.
func (o *Observer) Arrive(at cycles.Cycles, id uint64) {
	o.Stream.Smp.Feed(at, o.kArrive, id, 0)
}

// Served records one root completion of latency lat and service cost.
func (o *Observer) Served(at, lat, cost cycles.Cycles) {
	o.Stream.Emit(at, o.kServed, uint64(lat), uint64(cost))
}

// Erred records one failed root request of latency lat.
func (o *Observer) Erred(at, lat cycles.Cycles) {
	o.Stream.Emit(at, o.kErred, uint64(lat), 0)
}

// Finish closes the time series, stamping the engine's event count,
// and returns it with the trace ring.
func (o *Observer) Finish(fired uint64) (*obs.TimeSeries, *obs.Recorder) {
	ts := o.Stream.Smp.Finish(o.Stream.Rec)
	ts.EventsFired = fired
	return ts, o.Stream.Rec
}
