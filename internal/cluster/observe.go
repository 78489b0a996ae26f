package cluster

import (
	"math"
	"strconv"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// ObserveConfig enables the observability layer on a cluster run: a
// flight-recorder trace ring plus a windowed metrics time series, both
// in virtual time (internal/obs). Leaving the field nil keeps the run
// on the zero-cost path — every instrumentation site is one branch.
type ObserveConfig = obs.Options

// clusterObs is one run's observability state. Emissions from model
// events flow through sinks chosen by the engine: the single engine
// feeds a Stream (ring + sampler, monotone time, auto-sealing); the
// sharded engine gives each shard a private outbox and the serial
// barrier/arrival code a central one, and barriers drain all outboxes
// as one batch — record content and ring retention are properties of
// the model, never of the shard layout.
//
// The sharded time series takes one path for every name. Each shard
// feeds its outbox's records to a sampler of its own, on the worker
// that ran its epoch; each barrier feeds the central outbox's records
// to the central sampler, absorbs the shard windows that can no longer
// change, and seals. Admissions count straight into the central
// sampler (FeedN): they are per-window counts with no span information
// and never enter the ring — one ring record per admission would
// double the trace volume of a loaded run for a constant-value counter
// track. (Queue-depth tracing covers admission visibility when asked
// for.)
type clusterObs struct {
	cfg ObserveConfig

	rec    *obs.Recorder
	smp    *obs.Sampler
	stream obs.Stream // single-engine sink
	cen    obs.Sink   // the serial-phase sink: &stream, or rec's open batch when sharded

	folded int // absorb watermark: shard windows below it are in smp

	// sealAt is the previous barrier's time, which the next drain seals
	// up to. The ingress tier resolves an epoch's completions after the
	// barrier's drain, so those records reach smp one drain late,
	// stamped back to the previous barrier at the earliest.
	sealAt cycles.Cycles

	// Pre-packed cluster-layer keys (track 0 = the fleet).
	kArrive, kServed, kErred, kDropped uint64
	kScale, kMigration, kFailure       uint64
}

func newClusterObs(cfg ObserveConfig, sharded bool) *clusterObs {
	o := &clusterObs{
		cfg: cfg,
		rec: obs.NewRecorder(cfg.RingCap),

		kArrive:    obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameArrive, 0),
		kServed:    obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameServed, 0),
		kErred:     obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameErred, 0),
		kDropped:   obs.Key(obs.KindCounter, obs.LayerCluster, obs.NameDropped, 0),
		kScale:     obs.Key(obs.KindInstant, obs.LayerCluster, obs.NameScale, 0),
		kMigration: obs.Key(obs.KindInstant, obs.LayerCluster, obs.NameMigration, 0),
		kFailure:   obs.Key(obs.KindInstant, obs.LayerCluster, obs.NameFailure, 0),
	}
	o.rec.Label(obs.LayerCluster, 0, "fleet")
	o.stream.Rec = o.rec
	if sharded {
		o.cen = o.rec // serial phases write straight into the open batch
	} else {
		o.cen = &o.stream
	}
	return o
}

// arm creates the samplers once the horizon is known (Run time). The
// single engine feeds in nondecreasing virtual time, so its sampler
// auto-seals; the sharded engine seals explicitly at barriers and gets
// one more sampler per shard.
func (o *clusterObs) arm(horizon cycles.Cycles, sh *shardRun) {
	window := cycles.FromMicros(o.cfg.WindowUS)
	o.smp = obs.NewSampler(window, horizon)
	o.smp.AutoSeal = sh == nil
	o.stream.Smp = o.smp
	if sh != nil {
		for i := range sh.shards {
			sh.shards[i].smp = obs.NewSampler(window, horizon)
		}
		o.rec.BeginBatch() // the serial sink needs an open batch from the start
	}
}

// traceQueue wires a queue's depth instrumentation (opt-in) and its
// track label under the given id.
func (o *clusterObs) traceQueue(q *sim.Queue, sink obs.Sink, id uint32, name string) {
	o.rec.Label(obs.LayerSim, id, name)
	if o.cfg.QueueDepth {
		q.Trace(sink,
			obs.Key(obs.KindCounter, obs.LayerSim, obs.NameEnq, id),
			obs.Key(obs.KindCounter, obs.LayerSim, obs.NameDeq, id))
	}
}

// drain moves the epoch's per-shard outboxes and the central outbox
// into one recorder batch, brings the central sampler up to date, and
// seals every window ending at or before the previous barrier. Nothing
// here sorts: the samplers aggregate order-independently, and the
// recorder defers canonical ordering (and partial-batch eviction) to
// export time. Records emitted during the barrier itself join the next
// epoch's batch — so batch boundaries, and with them ring retention
// under overflow, are model properties. Most carry timestamp now; the
// ingress tier's carry their completion instants within the epoch just
// run, which is why sealing lags one barrier.
func (o *clusterObs) drain(sh *shardRun, now cycles.Cycles) {
	for _, r := range o.rec.OpenBatch() { // serial-phase records since the last drain
		o.smp.Feed(r.At, r.Key, r.A, r.B)
	}
	for i := range sh.shards {
		sh.shards[i].ob.FlushTo(o.rec)
	}
	o.rec.EndBatch()
	o.rec.BeginBatch()
	o.fold(sh, int(now/o.smp.Window()))
	o.smp.Seal(o.sealAt)
	o.sealAt = now
}

// fold absorbs every shard sampler's windows below lim into the
// central sampler. Each window is absorbed exactly once: o.folded is
// the watermark, and a shard's series records come only from its
// engine's events (completions), so their windows lie at or after the
// last barrier time, at or above the watermark. The barrier itself
// emits on the shards only queue-depth samples, which no window
// counts.
func (o *clusterObs) fold(sh *shardRun, lim int) {
	for i := range sh.shards {
		o.smp.Absorb(sh.shards[i].smp, o.folded, lim)
	}
	o.folded = lim
}

// obEvent emits one control-plane instant record; the mark text itself
// rides the Result's event log into the time series at assemble time.
func (c *Cluster) obEvent(at cycles.Cycles, key uint64, a uint64) {
	if c.ob != nil {
		c.ob.cen.Emit(at, key, a, 0)
	}
}

// obFinish drains what the last barrier left, folds the event log into
// marks, and materializes the Result's time series and trace ring.
func (c *Cluster) obFinish() {
	o := c.ob
	if o == nil {
		return
	}
	if c.sh != nil {
		o.drain(c.sh, c.horizon)
		o.fold(c.sh, math.MaxInt) // windows straddling the horizon
	}
	// Marks: scale events and migrations merged in time order (both
	// logs are already deterministic and time-sorted).
	evs, migs := c.res.ScaleEvents, c.res.Migrations
	i, j := 0, 0
	for i < len(evs) || j < len(migs) {
		if j >= len(migs) || (i < len(evs) && evs[i].AtSec <= migs[j].AtSec) {
			o.smp.AddMark(evs[i].AtSec*1e6, evs[i].Action, evs[i].Detail)
			i++
		} else {
			o.smp.AddMark(migs[j].AtSec*1e6, "migration",
				migs[j].Container+": node "+strconv.Itoa(migs[j].FromNode)+" -> "+strconv.Itoa(migs[j].ToNode)+" ("+migs[j].Reason+")")
			j++
		}
	}
	ts := o.smp.Finish(o.rec)
	ts.EventsFired = c.EventsFired()
	c.res.TimeSeries = ts
	c.res.Trace = o.rec
}
