// Package sim is the deterministic discrete-event simulation engine
// behind every tier-2 (flow-level) model in this repository: an event
// heap ordered by virtual time in cycles.Cycles, seeded pseudo-random
// arrival and size distributions, and multi-server FIFO queues. Their
// consumers summarise latency with obs.Histogram.
//
// The engine exists so that bursty open-loop arrivals, queueing delay,
// tail latency, and multi-tenant contention — phenomena closed-form
// models (Little's law ratios, capacity minima) cannot express — emerge
// from the same event kernel across workload, netsim, cpusim, and
// cluster. Determinism is a hard requirement: for a fixed seed, two
// runs of the same configuration produce byte-identical statistics,
// which is what lets reports be golden-tested.
//
// The event kernel is allocation-free in steady state and built for
// the cache, not the garbage collector. The heap orders 16-byte value
// keys (timestamp plus a packed sequence/slot word) in a hand-rolled
// 4-ary min-heap; payloads — a Job value plus a reference to a
// registered Handler, replacing the old per-event closure — live in a
// pointer-free slot arena the keys index, so scheduling stores no
// pointers (no GC write barriers) and the collector never scans the
// arena. The func() form (At, After) remains as the escape hatch for
// cold-path control events (autoscaler ticks, migration resumes, run
// seeding), where one closure per run is noise.
//
// Events whose delay is a model constant (ingress attempt timeouts,
// the rungs of the retry backoff ladder, a sharded fleet's service
// completions) bypass the heap. The owner of such a constant declares
// it once (DeclareDelay), and every typed event scheduled exactly that
// far ahead joins a fixed-delay lane: a FIFO ring of keys. A lane needs
// no ordering work, because its keys are stamped at now+d with now
// monotone and seq increasing, so they arrive already sorted. The loop
// fires the smaller of the heap root and the cached minimum lane head.
// Every event keeps its (at, seq) stamp, so the fire order is exactly
// the heap-only order.
package sim

import (
	"math/bits"
	"unsafe"

	"xcontainers/internal/cycles"
)

// Handler receives a typed event: the engine calls HandleEvent with
// the Job scheduled alongside it, at the scheduled virtual time. Hot
// paths implement Handler once (a queue completing jobs, an arrival
// pump, a CPU dispatcher), register it, and schedule by reference —
// zero allocations and zero pointer stores per event.
type Handler interface {
	HandleEvent(e *Engine, j Job)
}

// HandlerRef names a Handler registered with an engine. Refs are only
// meaningful on the engine that issued them.
type HandlerRef int32

// key is one queued event, in the heap or in a lane: the firing time
// plus a packed word whose high bits are the schedule-order sequence
// number and low bits the payload slot. Events fire in (at, seq) order
// — a total order, since seq is unique — so neither heap-sibling order
// nor the heap/lane split leaks into results, and comparing the packed
// words is the tie-break.
type key struct {
	at cycles.Cycles
	ss uint64
}

// before reports whether a fires before b: (a.at, a.ss) < (b.at, b.ss)
// as one 128-bit subtraction whose final borrow is the answer. A
// two-level compare would branch on data the predictor cannot learn;
// the borrow chain is straight-line code.
func before(a, b key) bool { return borrow(a, b) != 0 }

// borrow is before as a 0/1 word, for selects that must not branch.
func borrow(a, b key) uint64 {
	_, br := bits.Sub64(a.ss, b.ss, 0)
	_, br = bits.Sub64(uint64(a.at), uint64(b.at), br)
	return br
}

// noKey is an empty lane's head: it sorts after every real key, whose
// packed sequence word never has all bits set.
var noKey = key{at: ^cycles.Cycles(0), ss: ^uint64(0)}

// maxLanes caps the declared delays. Every typed push scans the
// declared delays, so the cap bounds what an undeclared event pays;
// declarations past it are ignored and those events use the heap. The
// lane arrays inside Engine are this long.
const maxLanes = 16

// lane is one declared delay's FIFO: a power-of-two ring of keys,
// oldest at ring[first].
type lane struct {
	ring     []key
	first, n int
}

const (
	// slotBits is the arena-index width inside key.ss, leaving 40 bits
	// of sequence above it: 8M simultaneously pending events and 1T
	// events per engine lifetime, both far beyond any simulation here.
	slotBits = 24
	fnFlag   = 1 << 23 // the slot indexes the func() arena, not payloads
	slotMask = 1<<slotBits - 1
)

// payload is what a typed event fires. It is deliberately pointer-free
// (Job is all scalars, the handler is a table index): the garbage
// collector neither scans the arena nor interposes write barriers on
// the schedule path.
type payload struct {
	job Job
	h   HandlerRef
}

// Engine is one virtual-time event loop. It is single-threaded by
// design: handlers run to completion in timestamp order, and all model
// state they touch needs no synchronization. Concurrency lives one
// layer up — independent replications, each on its own engine (see
// xc.Sweep), or the shards of one cluster run, whose engines advance on
// different cores between barriers. For the second case an Engine owns
// whole cache lines: its size is a multiple of 64 bytes (the allocator
// then places every engine on a line boundary), so the fields one
// engine writes on every event never share a line with the fields a
// neighbouring engine reads on every event.
type Engine struct {
	engine
	_ [(64 - unsafe.Sizeof(engine{})%64) % 64]byte
}

// engine is Engine's state, before the padding.
type engine struct {
	now   cycles.Cycles
	seq   uint64
	fired uint64

	// keys is a 4-ary min-heap of values: children of slot i live at
	// 4i+1..4i+4. Arity 4 halves the tree depth of a binary heap and
	// packs four 16-byte siblings into one cache line, which is where
	// a value heap spends its time. All storage below is reused across
	// push and pop, so steady state never allocates.
	keys []key
	pays []payload // typed-event arena
	// freeHead threads the arena's free list through the payloads
	// themselves (a freed slot's h field holds the next free index),
	// so recycling a slot touches no separate free slice. -1 = empty.
	freeHead int32

	fns      []func() // cold-path func() arena, its own free list
	fnFree   []uint32
	handlers []Handler

	// Fixed-delay lanes, parallel by lane index below nlanes: the
	// declared delay, the lane's oldest key (noKey when empty) and its
	// ring. The arrays live inside the engine, so lane metadata shares
	// no allocation (and no cache line) with another engine's. lmin
	// indexes the smallest head and laned counts the keys in all lanes,
	// so an engine with no laned event runs the heap-only loop.
	nlanes int
	lmin   int
	laned  int
	delays [maxLanes]cycles.Cycles
	heads  [maxLanes]key
	lanes  [maxLanes]lane
}

// NewEngine creates an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{engine: engine{freeHead: -1}} }

// Now returns the current virtual time.
func (e *Engine) Now() cycles.Cycles { return e.now }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.keys) + e.laned }

// HeapCap returns the event heap's capacity: the high-water mark of
// heap-ordered pending events, as append rounds it. The heap grows only
// when that mark rises, so allocation budgets read it to tell model
// growth from a hot-path allocation.
func (e *Engine) HeapCap() int { return cap(e.keys) }

// Fired returns the number of events dispatched so far — the
// denominator of the kernel's events/sec throughput metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Register adds h to the engine's handler table and returns its
// reference. Register once per long-lived handler, at construction —
// the table is append-only for the engine's lifetime.
func (e *Engine) Register(h Handler) HandlerRef {
	e.handlers = append(e.handlers, h)
	return HandlerRef(len(e.handlers) - 1)
}

// ScheduleAt schedules a typed event: at virtual time t, the handler h
// names runs with j. Scheduling into the past clamps to now (the event
// fires this instant, after already-queued events with the same
// timestamp).
func (e *Engine) ScheduleAt(t cycles.Cycles, h HandlerRef, j Job) {
	e.scheduleJobAt(t, h, &j)
}

// Schedule schedules a typed event d cycles from now.
func (e *Engine) Schedule(d cycles.Cycles, h HandlerRef, j Job) {
	e.scheduleJobAt(e.now+d, h, &j)
}

// scheduleJobAt is the allocation-free hot path shared by every typed
// schedule: claim an arena slot, copy the job in, push a 16-byte key.
func (e *Engine) scheduleJobAt(t cycles.Cycles, h HandlerRef, j *Job) {
	slot := e.claim()
	p := &e.pays[slot]
	p.job = *j
	p.h = h
	e.pushSlot(t, slot)
}

// scheduleTickAt schedules a job-less typed event: self-rescheduling
// sources (arrival pumps, CPU dispatchers) carry their state in the
// handler, so the arena slot's job field is left stale and the handler
// must ignore its Job argument.
func (e *Engine) scheduleTickAt(t cycles.Cycles, h HandlerRef) {
	slot := e.claim()
	e.pays[slot].h = h
	e.pushSlot(t, slot)
}

// claim takes the free list's head slot or grows the arena by one.
func (e *Engine) claim() uint32 {
	if e.freeHead >= 0 {
		slot := uint32(e.freeHead)
		e.freeHead = int32(e.pays[slot].h)
		return slot
	}
	if len(e.pays) >= fnFlag {
		// Bit 23 discriminates the func() arena; an index reaching it
		// would silently misdispatch. Fail loudly instead.
		panic("sim: more than 2^23 pending typed events")
	}
	e.pays = append(e.pays, payload{})
	return uint32(len(e.pays) - 1)
}

// pushSlot stamps the sequence number and queues the slot's key: on
// the lane of its delay if that delay is declared, else on the heap.
func (e *Engine) pushSlot(t cycles.Cycles, slot uint32) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	k := key{at: t, ss: e.seq<<slotBits | uint64(slot)}
	if e.nlanes != 0 && e.pushLane(k) {
		return
	}
	e.push(k)
}

// DeclareDelay tells the engine that many typed events will be
// scheduled exactly d cycles ahead, so they can skip the heap. It is a
// hint: it never changes which events fire or in what order, and a
// zero, repeated or over-the-cap delay is ignored. Declare from set-up
// code, once per constant the model derives from its inputs. It never
// allocates: the lane's ring grows on its first event.
func (e *Engine) DeclareDelay(d cycles.Cycles) {
	if d == 0 || e.nlanes >= maxLanes {
		return
	}
	for _, x := range e.delays[:e.nlanes] {
		if x == d {
			return
		}
	}
	e.delays[e.nlanes] = d
	e.heads[e.nlanes] = noKey
	e.nlanes++
}

// pushLane appends k to the lane of its delay, reporting false when no
// lane has that delay. k is the newest key the lane has seen (the
// clock never goes back and seq only grows), so it goes at the tail;
// only a push into an empty lane can change the lane minimum.
func (e *Engine) pushLane(k key) bool {
	d := k.at - e.now
	for i, x := range e.delays[:e.nlanes] {
		if x != d {
			continue
		}
		l := &e.lanes[i]
		if l.n == len(l.ring) {
			l.grow()
		}
		l.ring[(l.first+l.n)&(len(l.ring)-1)] = k
		l.n++
		e.laned++
		if l.n == 1 {
			e.heads[i] = k
			if before(k, e.heads[e.lmin]) {
				e.lmin = i
			}
		}
		return true
	}
	return false
}

// grow doubles the ring, unwrapping it so the oldest key sits at 0.
func (l *lane) grow() {
	ring := make([]key, max(16, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.first+i)&(len(l.ring)-1)]
	}
	l.ring, l.first = ring, 0
}

// popLane removes the minimum lane head and finds the new minimum
// among the (few) lane heads.
func (e *Engine) popLane() {
	i := e.lmin
	l := &e.lanes[i]
	l.first = (l.first + 1) & (len(l.ring) - 1)
	l.n--
	e.laned--
	if l.n > 0 {
		e.heads[i] = l.ring[l.first]
	} else {
		e.heads[i] = noKey
	}
	m := 0
	for j := 1; j < e.nlanes; j++ {
		if before(e.heads[j], e.heads[m]) {
			m = j
		}
	}
	e.lmin = m
}

// At schedules fn at absolute virtual time t — the cold-path form; the
// closure is the caller's allocation. Past times clamp to now.
func (e *Engine) At(t cycles.Cycles, fn func()) {
	if t < e.now {
		t = e.now
	}
	var idx uint32
	if n := len(e.fnFree); n > 0 {
		idx = e.fnFree[n-1]
		e.fnFree = e.fnFree[:n-1]
	} else {
		if len(e.fns) >= fnFlag {
			// Indices at or above the flag bit would corrupt the
			// packed sequence word and the arena discriminator.
			panic("sim: more than 2^23 pending func() events")
		}
		e.fns = append(e.fns, nil)
		idx = uint32(len(e.fns) - 1)
	}
	e.fns[idx] = fn
	e.seq++
	e.push(key{at: t, ss: e.seq<<slotBits | uint64(idx) | fnFlag})
}

// After schedules fn d cycles from now.
func (e *Engine) After(d cycles.Cycles, fn func()) { e.At(e.now+d, fn) }

// push inserts k, sifting a hole up from the tail: parents move down
// until k's level is found, so each step is one 16-byte copy. A pushed
// key is freshly stamped, so its packed sequence word is the largest
// in the heap — at equal timestamps the (older) parent always stays
// above, and the level test is a single compare.
func (e *Engine) push(k key) {
	e.keys = append(e.keys, k)
	h := e.keys
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at <= k.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// popRoot removes the heap minimum, sifting the tail element down into
// the hole: the smallest child is promoted until the tail fits.
func (e *Engine) popRoot() {
	h := e.keys
	n := len(h) - 1
	last := h[n]
	e.keys = h[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		// The smallest child, selected with masks: which sibling is
		// smallest is data the branch predictor cannot learn.
		m, best := c, h[c]
		for k := c + 1; k < end; k++ {
			x := h[k]
			sel := -borrow(x, best) // all ones when x fires first
			m ^= (m ^ k) & int(sel)
			best.at ^= (best.at ^ x.at) & cycles.Cycles(sel)
			best.ss ^= (best.ss ^ x.ss) & sel
		}
		if before(last, best) {
			break
		}
		h[i] = best
		i = m
	}
	h[i] = last
}

// dispatch fires the already-popped event k: advance the clock, free
// the slot, run the handler.
func (e *Engine) dispatch(k key) {
	e.now = k.at
	e.fired++
	slot := uint32(k.ss) & slotMask
	if slot&fnFlag != 0 {
		idx := slot &^ uint32(fnFlag)
		fn := e.fns[idx]
		e.fns[idx] = nil // a recycled slot must not pin its closure
		e.fnFree = append(e.fnFree, idx)
		fn()
		return
	}
	p := &e.pays[slot]
	href := p.h
	p.h = HandlerRef(e.freeHead) // slot becomes the free list's head
	e.freeHead = int32(slot)
	// p.job is copied into the call before the handler runs, so the
	// handler rescheduling into this slot (or growing the arena) is
	// safe; nothing else in the slot needs clearing — it holds no
	// pointers. The two in-package handler types that dominate every
	// simulation (queue completions, arrival pumps) dispatch directly;
	// everything else goes through the interface.
	switch h := e.handlers[href].(type) {
	case *Queue:
		h.HandleEvent(e, p.job)
	case *pump:
		h.HandleEvent(e, p.job)
	default:
		h.HandleEvent(e, p.job)
	}
}

// fireLaned fires the earlier of the heap root and the minimum lane
// head if it is due by until, reporting whether it fired. Only called
// while some lane holds a key.
func (e *Engine) fireLaned(until cycles.Cycles) bool {
	k := e.heads[e.lmin]
	if len(e.keys) > 0 && before(e.keys[0], k) {
		k = e.keys[0]
		if k.at > until {
			return false
		}
		e.popRoot()
	} else {
		if k.at > until {
			return false
		}
		e.popLane()
	}
	e.dispatch(k)
	return true
}

// Step fires the earliest event, advancing the clock to it. It reports
// whether an event was fired.
func (e *Engine) Step() bool {
	if e.laned != 0 {
		return e.fireLaned(^cycles.Cycles(0))
	}
	if len(e.keys) == 0 {
		return false
	}
	k := e.keys[0]
	e.popRoot()
	e.dispatch(k)
	return true
}

// Run fires every event with timestamp ≤ until (including events those
// handlers schedule inside the horizon), then sets the clock to until.
// Events beyond the horizon stay queued; statistics read after Run
// therefore cover exactly the window [0, until].
func (e *Engine) Run(until cycles.Cycles) {
	for {
		if e.laned != 0 {
			if !e.fireLaned(until) {
				break
			}
			continue
		}
		if len(e.keys) == 0 {
			break
		}
		k := e.keys[0]
		if k.at > until {
			break
		}
		e.popRoot()
		e.dispatch(k)
	}
	if e.now < until {
		e.now = until
	}
}

// RunUntilIdle fires events until none remain. Sources must stop
// rescheduling themselves or this never returns.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}
