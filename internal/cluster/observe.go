package cluster

import (
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
// as one canonically sorted batch — record content and ring retention
// are properties of the model, never of the shard layout.
type clusterObs struct {
	cfg ObserveConfig

	rec    *obs.Recorder
	smp    *obs.Sampler
	stream obs.Stream // single-engine sink
	cen    obs.Sink   // the serial-phase sink: &stream, or rec's open batch when sharded

	folded int // central fold watermark: shard windows below it are merged

	// Arrival counting. Admissions are per-window counts in the time
	// series and carry no span information, so they never enter the
	// ring — one ring record per admission would double the trace
	// volume of a loaded run for a constant-value counter track.
	// (Queue-depth tracing covers admission visibility when asked
	// for.) The serial admission path counts into a window cache that
	// drains flush before sealing.
	arrN             uint64
	arrStart, arrEnd cycles.Cycles // cached window bounds; arrEnd == 0 means cold

	// Pre-packed cluster-layer keys (track 0 = the fleet).
	kArrive, kServed, kErred, kDropped uint64
	kScale, kMigration, kFailure       uint64
}

// servedAcc is one shard's windowed served/latency accumulator. The
// serve path is the sharded engine's hot loop and the only
// series-relevant name shards emit, so each shard aggregates its own
// completions in parallel with concrete types; barriers fold windows
// that can no longer change into the central sampler. The trace record
// still rides the shard outbox — this duplicates only the aggregation,
// not the data.
type servedAcc struct {
	window   cycles.Cycles
	horizon  cycles.Cycles
	curIdx   int           // window index the cache points at
	curStart cycles.Cycles // its bounds; curEnd == 0 means cold
	curEnd   cycles.Cycles
	wins     []servedWin
	free     []*sim.Histogram
}

type servedWin struct {
	n, busy uint64
	h       *sim.Histogram
}

// observe folds one completion into its window (same horizon clamp as
// the sampler's row()). The shard's event loop runs in nondecreasing
// virtual time, so the window-bounds cache turns the index division
// into two compares on the hot path.
func (a *servedAcc) observe(at cycles.Cycles, lat, cost uint64) {
	w := a.curIdx
	if at < a.curStart || at >= a.curEnd {
		w = int(at / a.window)
		if a.horizon > 0 && at >= a.horizon {
			w = int((a.horizon - 1) / a.window)
		}
		a.curIdx = w
		a.curStart = cycles.Cycles(w) * a.window
		a.curEnd = a.curStart + a.window
	}
	for len(a.wins) <= w {
		a.wins = append(a.wins, servedWin{})
	}
	win := &a.wins[w]
	if win.h == nil {
		if n := len(a.free); n > 0 {
			win.h = a.free[n-1]
			a.free = a.free[:n-1]
		} else {
			win.h = new(sim.Histogram)
		}
	}
	win.n++
	win.busy += cost
	win.h.Observe(cycles.Cycles(lat))
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

// arm creates the sampler once the horizon is known (Run time). The
// single engine feeds in nondecreasing virtual time, so its sampler
// auto-seals; the sharded engine seals explicitly at barriers and gets
// one served accumulator per shard.
func (o *clusterObs) arm(horizon cycles.Cycles, sh *shardRun) {
	window := cycles.FromMicros(o.cfg.WindowUS)
	o.smp = obs.NewSampler(window, horizon, func() obs.Quantiler { return new(sim.Histogram) })
	o.smp.AutoSeal = sh == nil
	o.stream.Smp = o.smp
	if sh != nil {
		for i := range sh.shards {
			sh.shards[i].acc = &servedAcc{window: o.smp.Window(), horizon: horizon}
		}
		o.rec.BeginBatch() // the serial sink needs an open batch from the start
	}
}

// countArrive folds n admissions at one instant into the arrival
// series. Serial-path only (admitNow, admitted, genArrivals); the
// flush rides the next drain, before that drain seals, and admissions
// always land in a window sealing strictly later.
func (o *clusterObs) countArrive(at cycles.Cycles, n uint64) {
	if at < o.arrStart || at >= o.arrEnd {
		o.flushArrive()
		w := o.smp.WindowOf(at)
		o.arrStart = cycles.Cycles(w) * o.smp.Window()
		o.arrEnd = o.arrStart + o.smp.Window()
	}
	o.arrN += n
}

// flushArrive pushes the cached arrival count into the sampler.
func (o *clusterObs) flushArrive() {
	if o.arrN > 0 {
		o.smp.FeedN(o.arrStart, o.kArrive, o.arrN)
		o.arrN = 0
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

// drain folds the epoch's per-shard outboxes and the central outbox
// into one recorder batch, feeds the sampler, and seals every window
// ending at or before now. Nothing here sorts: the sampler aggregates
// order-independently, and the recorder defers canonical ordering (and
// partial-batch eviction) to export time. Records emitted during the
// barrier itself carry timestamp now, land in a window ending strictly
// after now, and join the next epoch's batch — so batch boundaries,
// and with them ring retention under overflow, are model properties.
func (o *clusterObs) drain(sh *shardRun, now cycles.Cycles) {
	o.flushArrive()
	o.feedCentral(o.rec.OpenBatch()) // serial-phase records since the last drain
	for i := range sh.shards {
		sh.shards[i].ob.FlushTo(o.rec)
	}
	o.rec.EndBatch()
	o.rec.BeginBatch()
	o.fold(sh, int(now/o.smp.Window()))
	o.smp.Seal(now)
}

// feedCentral pushes the central outbox's records into the sampler.
// Serial-phase emissions come in runs sharing one timestamp and key —
// closed-loop re-admissions at a barrier, most visibly — and
// count-only names fold each run into a single FeedN. Shard outboxes
// never pass through here: their one series-relevant name (served) is
// aggregated shard-locally and merged by fold.
func (o *clusterObs) feedCentral(rs []obs.Rec) {
	for i := 0; i < len(rs); {
		r := &rs[i]
		if obs.Countable(obs.KeyName(r.Key)) {
			j := i + 1
			for j < len(rs) && rs[j].Key == r.Key && rs[j].At == r.At {
				j++
			}
			o.smp.FeedN(r.At, r.Key, uint64(j-i))
			i = j
			continue
		}
		o.smp.Feed(r.At, r.Key, r.A, r.B)
		i++
	}
}

// fold merges each shard's served accumulator into the central sampler
// for every window that can no longer change (index < lim; lim < 0
// means all — the end of the run). Each window folds exactly once:
// o.folded is the watermark, and a shard whose series is still shorter
// than the watermark can only emit at or after the current barrier
// time, so nothing is skipped.
func (o *clusterObs) fold(sh *shardRun, lim int) {
	max := o.folded
	for i := range sh.shards {
		acc := sh.shards[i].acc
		if acc == nil {
			continue
		}
		hi := len(acc.wins)
		if lim >= 0 && lim < hi {
			hi = lim
		}
		if hi > max {
			max = hi
		}
		for w := o.folded; w < hi; w++ {
			win := &acc.wins[w]
			if win.n == 0 {
				continue
			}
			o.smp.FoldServed(w, win.n, win.busy).(*sim.Histogram).Merge(win.h)
			win.h.Reset()
			acc.free = append(acc.free, win.h)
			*win = servedWin{}
		}
	}
	o.folded = max
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
		o.fold(c.sh, -1) // windows straddling the horizon
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
