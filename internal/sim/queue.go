package sim

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

// Job is one unit of work flowing through queues. Born is stamped by
// the traffic source at admission so end-to-end latency survives
// multi-station pipelines; Stage lets pipeline drivers route a
// completed job to its next station.
type Job struct {
	ID    uint64
	Cost  cycles.Cycles // service demand at the current station
	Born  cycles.Cycles // admission time into the system
	Stage int           // pipeline position, maintained by the driver
}

// Queue is a multi-server FIFO station on an engine: up to Servers jobs
// in service simultaneously, excess arrivals waiting in order. It
// accumulates the statistics every flow-level consumer needs — busy
// cycles and time-weighted queue depth. Consumers measure latency
// themselves, through OnDone and the Born stamp.
type Queue struct {
	Name    string
	Servers int

	// OnDone, when set, receives each completed job at its completion
	// instant — the hook closed-loop sources use to re-inject work and
	// pipelines use to route to the next station.
	OnDone func(Job)

	// OnStart, when set, receives each job at the instant it enters
	// service — the hook consumers use to attribute busy time to
	// whichever resource is serving right then (a migrating container's
	// host changes between arrival and completion).
	OnStart func(Job)

	eng       *Engine
	ref       HandlerRef
	busy      int
	suspended bool

	// waiting is a power-of-two ring buffer reused for the queue's
	// lifetime: the backlog grows it once to its high-water mark and
	// every later wait costs zero allocations.
	waiting []Job
	head    int
	count   int

	Arrived   uint64
	Completed uint64
	// BusyCycles is total service demand charged in full when service
	// starts — the per-job accounting consumers aggregate. For the
	// busy fraction of a bounded window use Utilization, which clips
	// jobs straddling the horizon to their in-window portion.
	BusyCycles cycles.Cycles

	depth      int // jobs in system (waiting + in service)
	maxDepth   int
	depthArea  float64 // ∫ depth dt, cycle-weighted
	lastChange cycles.Cycles

	// busyArea is ∫ busy-servers dt in exact integer cycle-units; it
	// is bounded by Servers×horizon, far from int64 overflow for any
	// simulation this repository runs.
	busyArea int64
	busyLast cycles.Cycles

	// trace, when set, receives one depth record per admission and per
	// completion under the pre-packed keys — the observability layer's
	// queue instrumentation. Nil costs one branch per operation.
	trace              obs.Sink
	traceEnq, traceDeq uint64
}

// NewQueue creates a station with the given number of servers (≥ 1).
func NewQueue(eng *Engine, name string, servers int) *Queue {
	if servers < 1 {
		servers = 1
	}
	q := &Queue{Name: name, Servers: servers, eng: eng}
	q.ref = eng.Register(q)
	return q
}

// Trace points the queue's depth instrumentation at sink: every
// admission emits enqKey with the post-arrival depth, every completion
// emits deqKey with the post-completion depth and the job's cost. A nil
// sink turns the instrumentation back off.
func (q *Queue) Trace(sink obs.Sink, enqKey, deqKey uint64) {
	q.trace = sink
	q.traceEnq, q.traceDeq = enqKey, deqKey
}

// Arrive admits a job: it enters service if a server is free, otherwise
// waits FIFO.
func (q *Queue) Arrive(j Job) {
	q.Arrived++
	q.noteDepth()
	q.depth++
	if q.depth > q.maxDepth {
		q.maxDepth = q.depth
	}
	if q.trace != nil {
		q.trace.Emit(q.eng.now, q.traceEnq, uint64(q.depth), 0)
	}
	if q.busy < q.Servers && !q.suspended {
		q.start(&j)
		return
	}
	q.pushWaiting(&j)
}

// Suspend freezes dispatch: jobs already in service run to completion,
// but no waiting or newly arriving job starts service until Resume.
// This is the blackout window of a live migration — connections drain,
// the backlog holds, and the held time shows up in sojourn latency.
func (q *Queue) Suspend() { q.suspended = true }

// Suspended reports whether dispatch is currently frozen.
func (q *Queue) Suspended() bool { return q.suspended }

// Resume reopens dispatch and starts as many held jobs as servers
// allow, in FIFO order.
func (q *Queue) Resume() {
	q.suspended = false
	for q.busy < q.Servers {
		j, ok := q.popWaiting()
		if !ok {
			return
		}
		q.start(&j)
	}
}

// TakeWaiting removes and returns every job still waiting for service —
// the backlog a crashed node loses (or a caller re-routes). Jobs
// already in service are unaffected; depth accounting updates at the
// current instant.
func (q *Queue) TakeWaiting() []Job {
	if q.count == 0 {
		return nil
	}
	out := make([]Job, q.count)
	for i := range out {
		out[i] = q.waiting[(q.head+i)&(len(q.waiting)-1)]
	}
	clear(q.waiting)
	q.head = 0
	q.setDepth(q.depth - q.count)
	q.count = 0
	return out
}

// pushWaiting appends to the ring, doubling it when full.
func (q *Queue) pushWaiting(j *Job) {
	if q.count == len(q.waiting) {
		grown := make([]Job, max(2*len(q.waiting), 16))
		for i := 0; i < q.count; i++ {
			grown[i] = q.waiting[(q.head+i)&(len(q.waiting)-1)]
		}
		q.waiting = grown
		q.head = 0
	}
	q.waiting[(q.head+q.count)&(len(q.waiting)-1)] = *j
	q.count++
}

// popWaiting dequeues the oldest held job, if any.
func (q *Queue) popWaiting() (Job, bool) {
	if q.count == 0 {
		return Job{}, false
	}
	j := q.waiting[q.head]
	q.waiting[q.head] = Job{}
	q.head = (q.head + 1) & (len(q.waiting) - 1)
	q.count--
	return j, true
}

func (q *Queue) start(j *Job) {
	q.noteBusy()
	q.busy++
	q.BusyCycles += j.Cost
	if q.OnStart != nil {
		q.OnStart(*j)
	}
	q.eng.scheduleJobAt(q.eng.now+j.Cost, q.ref, j)
}

// HandleEvent completes the job whose service the queue scheduled — it
// is the engine's typed completion callback, not an API for admitting
// work (use Arrive).
func (q *Queue) HandleEvent(e *Engine, j Job) {
	q.Completed++
	q.noteDepth()
	q.depth--
	q.noteBusy()
	q.busy--
	if q.trace != nil {
		q.trace.Emit(e.now, q.traceDeq, uint64(q.depth), uint64(j.Cost))
	}
	if !q.suspended {
		if next, ok := q.popWaiting(); ok {
			q.start(&next)
		}
	}
	if q.OnDone != nil {
		q.OnDone(j)
	}
}

func (q *Queue) setDepth(d int) {
	q.noteDepth()
	q.depth = d
	if d > q.maxDepth {
		q.maxDepth = d
	}
}

// noteDepth closes the jobs-in-system integral up to now; call it
// before every change to q.depth. The accumulator stays float64 — its
// rounding behaviour is part of the golden-pinned statistics.
func (q *Queue) noteDepth() {
	now := q.eng.now
	q.depthArea += float64(q.depth) * float64(now-q.lastChange)
	q.lastChange = now
}

// noteBusy closes the busy-servers integral up to now; call it before
// every change to q.busy. A completion that immediately starts the
// next waiting job changes busy twice at one instant — the zero-width
// second interval is skipped.
func (q *Queue) noteBusy() {
	now := q.eng.now
	if now == q.busyLast {
		return
	}
	q.busyArea += int64(q.busy) * int64(now-q.busyLast)
	q.busyLast = now
}

// Depth returns the current jobs-in-system count.
func (q *Queue) Depth() int { return q.depth }

// MaxDepth returns the peak jobs-in-system count.
func (q *Queue) MaxDepth() int { return q.maxDepth }

// MeanDepth returns the time-weighted mean jobs-in-system over the
// window [0, horizon].
func (q *Queue) MeanDepth(horizon cycles.Cycles) float64 {
	if horizon == 0 {
		return 0
	}
	// Account the still-open interval up to the horizon.
	area := q.depthArea
	if horizon > q.lastChange {
		area += float64(q.depth) * float64(horizon-q.lastChange)
	}
	return area / float64(horizon)
}

// Utilization returns the fraction of server capacity consumed within
// the window [0, horizon]. It integrates busy servers over time, so a
// job straddling the horizon contributes only its in-window portion —
// charging whole jobs at service start would overcount the boundary.
func (q *Queue) Utilization(horizon cycles.Cycles) float64 {
	if horizon == 0 {
		return 0
	}
	area := q.busyArea
	if horizon > q.busyLast {
		area += int64(q.busy) * int64(horizon-q.busyLast)
	}
	u := float64(area) / (float64(q.Servers) * float64(horizon))
	return min(u, 1)
}
