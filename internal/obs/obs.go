// Package obs is the deterministic observability layer: a
// flight-recorder trace ring of packed fixed-size records plus a
// windowed metrics sampler, both running entirely in virtual time.
//
// The layer exists to open the interior of a run — when the retry
// storm ignited, which window the autoscaler reacted in, what one
// hedged request experienced across ingress → route → replica —
// without perturbing the model or its byte-identical goldens. Three
// properties are load-bearing:
//
//   - Zero cost when off. Every instrumentation site guards on a nil
//     sink, one predictable branch; nothing allocates, nothing runs.
//   - No model perturbation when on. Observation never schedules
//     events, never changes routing, never touches a seed. A traced
//     run and an untraced run produce the same Report.
//   - Shard invariance. Records are emitted only from model events
//     (arrivals, completions, timeouts, retries, scale decisions) and
//     carry their virtual timestamps, so the record multiset is a
//     property of the model, not of the execution layout. Sampler
//     aggregation is order-independent (counts, histogram buckets,
//     minima), and trace export sorts canonically by (At, Key, A, B) —
//     trace and time-series output are byte-identical for any
//     Shards ≥ 1 × any worker count, the same bar as ClusterReport.
//
// obs depends only on internal/cycles; internal/sim imports obs (for
// queue instrumentation), never the reverse. Windowed percentiles
// therefore come through the Quantiler interface, which
// *sim.Histogram satisfies.
package obs

import (
	"slices"

	"xcontainers/internal/cycles"
)

// Layer identifies which simulation layer emitted a record. It becomes
// the Perfetto process a record's track lives under.
type Layer uint8

const (
	LayerSim     Layer = iota // event kernel: queue enq/deq depth
	LayerCluster              // fleet: request flow, scale/migration/failure
	LayerIngress              // L7 tier: attempt spans, retries, hedges
	LayerTier1                // interpreter: block-cache counters
)

// layerNames are the Perfetto process names, indexed by Layer.
var layerNames = [...]string{"sim", "cluster", "ingress", "tier1"}

// Kind is a record's type, stored in the top byte of its key.
type Kind uint8

const (
	KindSpanBegin Kind = iota // A carries the span's pairing id
	KindSpanEnd               // A matches the begin; B ≠ 0 flags wasted/failed
	KindInstant               // a point event (timeout fired, retry issued)
	KindCounter               // A carries the sample value
)

// Well-known record names. They are baked into keys as 16-bit ids and
// pre-interned by NewRecorder in this order, so the ids are stable
// across runs and layers; the sampler routes on them, and counts only
// the contiguous run NameArrive..NameBudget. Dynamic names (route
// labels, queue labels) live in the recorder's label table, not here.
const (
	NameEnq          uint16 = iota // counter: queue enqueue; A = post-enqueue depth
	NameDeq                        // counter: queue completion; A = depth after, B = job cost
	NameArrive                     // counter: request admitted to the system
	NameServed                     // counter: request completed OK; A = latency cycles, B = cost cycles
	NameErred                      // counter: request failed; A = latency cycles
	NameDropped                    // counter: request dropped (lost backlog, unroutable)
	NameTimeout                    // instant: attempt timeout fired
	NameRetry                      // instant: retry issued
	NameHedge                      // instant: hedge attempt issued
	NameWasted                     // counter: wasted completion; A = wasted latency cycles
	NameBudgetDenied               // instant: retry denied by budget
	NameBudget                     // counter: retry-budget tokens ×1000 (windowed min)
	NameScale                      // instant: autoscale action
	NameMigration                  // instant: container migration
	NameFailure                    // instant: node failure
	NameRequest                    // span: one end-to-end request
	NameAttempt                    // span: one attempt on a route
)

// wellKnownNames is the display-string table for the ids above.
var wellKnownNames = [...]string{
	"enq", "deq", "arrive", "served", "erred", "dropped",
	"timeout", "retry", "hedge", "wasted", "budget-denied", "budget",
	"scale", "migration", "failure", "request", "attempt",
}

// Key packs a record's identity into one word:
// kind(8) | layer(8) | name(16) | id(32). No pointers, one compare.
func Key(k Kind, l Layer, name uint16, id uint32) uint64 {
	return uint64(k)<<56 | uint64(l)<<48 | uint64(name)<<32 | uint64(id)
}

// KeyKind, KeyLayer, KeyName, and KeyID unpack a key's fields.
func KeyKind(key uint64) Kind   { return Kind(key >> 56) }
func KeyLayer(key uint64) Layer { return Layer(key >> 48) }
func KeyName(key uint64) uint16 { return uint16(key >> 32) }
func KeyID(key uint64) uint32   { return uint32(key) }

// Rec is one trace record: 32 bytes, pointer-free, fixed layout. A and
// B are payload words whose meaning the name constants document (span
// pairing ids, sample values, latencies in cycles).
type Rec struct {
	At  cycles.Cycles
	Key uint64
	A   uint64
	B   uint64
}

// cmp is the canonical record order: (At, Key, A, B). Records equal
// under it are identical, so it is a total order on distinct records
// and the exported trace is byte-identical for any execution layout
// that produces the same record multiset.
func cmp(a, b Rec) int {
	switch {
	case a.At != b.At:
		if a.At < b.At {
			return -1
		}
		return 1
	case a.Key != b.Key:
		if a.Key < b.Key {
			return -1
		}
		return 1
	case a.A != b.A:
		if a.A < b.A {
			return -1
		}
		return 1
	case a.B != b.B:
		if a.B < b.B {
			return -1
		}
		return 1
	}
	return 0
}

// Sink receives records. Recorder, Buffer, and Stream implement it;
// instrumentation sites hold a Sink and emit through one nil check.
type Sink interface {
	Emit(at cycles.Cycles, key, a, b uint64)
}

// Recorder is the flight recorder: a bounded buffer of the most
// recent records, overwrite-oldest, with drop accounting. A nil
// *Recorder is the disabled state — every method returns immediately,
// so call sites cost one branch when observability is off.
//
// A single engine's unbatched records fill a circular buffer of
// capacity records that overwrites its oldest once full. Barrier
// batches are a deque instead, and a batch is a group of record
// segments whose backing arrays the recorder owns outright: the
// sharded barrier hands over each shard outbox's slice
// (Buffer.FlushTo) instead of copying its records, and evicted
// segments recycle back out as fresh outbox storage. Overflow
// drops whole batches oldest-first, and when the oldest retained
// batch is only partially evicted, WHICH of its records were dropped
// is resolved at export time — the canonically smallest go first.
// Batch membership is a model property (epoch boundaries), so
// retention is layout-invariant without the barrier sorting or even
// touching the records; eviction is O(1) bookkeeping per batch.
type Recorder struct {
	segs    [][]Rec    // sealed record segments, oldest first, grouped into batches by bounds
	bounds  []batchRef // sealed batches, oldest first; live entries are bounds[bstart:]
	bstart  int        // first live entry in bounds
	evict0  int        // records of the oldest batch already evicted (canonical smallest, resolved at export)
	liveN   int        // records across live sealed batches, net of evict0
	tail    []Rec      // Emit's destination: the open batch's serial segment, or the single-engine ring
	head    int        // a full single-engine ring's oldest record, the next overwritten
	openN   int        // records across the open batch's flushed segments (excludes tail)
	openS   int        // the open batch's flushed segments: the last openS of segs
	limit   int        // retention capacity in records
	open    bool       // a barrier batch is open
	emitted uint64

	free [][]Rec // evicted segments awaiting reuse as outbox storage

	names  []string
	byName map[string]uint16
	labels map[uint64]string // Layer<<32|id → track display label
}

// batchRef locates one sealed batch: its first segment and its record
// count.
type batchRef struct {
	seg int
	n   int
}

// DefaultRingCap is the trace ring capacity when the caller does not
// choose one: 64k records × 32 bytes = 2 MiB of flight recorder. A
// single-engine ring allocates a sixteenth of that first and all of it
// once the sixteenth fills, then never again.
const DefaultRingCap = 1 << 16

// NewRecorder creates a recorder with the given ring capacity
// (records; ≤ 0 means DefaultRingCap) and the well-known names
// pre-interned.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	r := &Recorder{
		limit:  capacity,
		byName: make(map[string]uint16, len(wellKnownNames)),
		labels: make(map[uint64]string),
	}
	for _, n := range wellKnownNames {
		r.Intern(n)
	}
	return r
}

// Emit appends one record, overwriting the oldest when the recorder is
// full. Safe (and free) on a nil receiver. While a barrier batch is
// open the record joins its serial segment; otherwise each record is
// its own eviction unit and overflow drops strictly oldest-first:
// sealed batches first, then the ring's own oldest record.
func (r *Recorder) Emit(at cycles.Cycles, key, a, b uint64) {
	if r == nil {
		return
	}
	r.emitted++
	rec := Rec{At: at, Key: key, A: a, B: b}
	switch {
	case r.open:
		r.tail = append(r.tail, rec)
	case len(r.tail) == r.limit:
		r.tail[r.head] = rec
		if r.head++; r.head == r.limit {
			r.head = 0
		}
	default:
		if r.Len() == r.limit {
			r.evict(1)
			r.compact()
		}
		if len(r.tail) == cap(r.tail) { // a sixteenth of the ring first, then all of it
			size := r.limit
			if cap(r.tail) < r.limit/16 {
				size = r.limit / 16
			}
			grown := make([]Rec, len(r.tail), size)
			copy(grown, r.tail)
			r.tail = grown
		}
		r.tail = append(r.tail, rec)
	}
}

// BeginBatch opens a barrier merge batch: Emit appends and FlushTo
// hands over segments until EndBatch, and the whole epoch forms one
// eviction unit whose internal order is irrelevant — canonical order
// is resolved at export, so the barrier never sorts. Records emitted
// before the first batch join it.
func (r *Recorder) BeginBatch() {
	if r == nil {
		return
	}
	r.open = true
}

// OpenBatch returns the open batch's serial segment so far — what Emit
// appended since BeginBatch. Valid until the next append.
func (r *Recorder) OpenBatch() []Rec {
	if r == nil || !r.open {
		return nil
	}
	return r.tail
}

// EndBatch seals the open batch — its flushed segments plus the serial
// tail — and applies retention.
func (r *Recorder) EndBatch() {
	if r == nil {
		return
	}
	r.open = false
	n := r.openN + len(r.tail)
	if n > 0 {
		// Flushed segments were already appended to segs; the batch
		// starts at the first of them.
		b := batchRef{seg: len(r.segs) - r.openS, n: n}
		if len(r.tail) > 0 {
			r.segs = append(r.segs, r.tail)
			r.tail, r.head = r.nextTail(), 0
		}
		r.bounds = append(r.bounds, b)
		r.liveN += n
		r.openN, r.openS = 0, 0
	}
	if over := r.Len() - r.limit; over > 0 {
		r.evict(over)
	}
	r.compact()
}

// flush takes ownership of an outbox's records as one segment of the
// open batch and returns recycled storage for the outbox's next epoch.
// Before eviction starts recycling segments, replacements are
// allocated at the handed-over size in one step — epoch volumes are
// stable, so this avoids regrowing every outbox from nil each epoch.
func (r *Recorder) flush(rs []Rec) []Rec {
	r.segs = append(r.segs, rs)
	r.openN += len(rs)
	r.openS++
	r.emitted += uint64(len(rs))
	if n := len(r.free); n > 0 {
		out := r.free[n-1]
		r.free = r.free[:n-1]
		return out[:0]
	}
	return make([]Rec, 0, len(rs))
}

// nextTail returns recycled storage for the serial segment.
func (r *Recorder) nextTail() []Rec {
	if n := len(r.free); n > 0 {
		out := r.free[n-1]
		r.free = r.free[:n-1]
		return out[:0]
	}
	return nil
}

// evict drops the oldest `excess` records of the sealed batches: whole
// batches while possible — recycling their segments — then a partial
// eviction of the oldest survivor counted in evict0. No record moves.
// Callers never ask for more than the sealed batches hold.
func (r *Recorder) evict(excess int) {
	for excess > 0 && r.bstart < len(r.bounds) {
		b := &r.bounds[r.bstart]
		size := b.n - r.evict0
		if size > excess {
			r.evict0 += excess
			r.liveN -= excess
			return
		}
		// Drop the whole batch; its segments return to the free list.
		end := len(r.segs)
		if r.bstart+1 < len(r.bounds) {
			end = r.bounds[r.bstart+1].seg
		}
		for i := b.seg; i < end; i++ {
			if cap(r.segs[i]) > 0 {
				r.free = append(r.free, r.segs[i][:0])
			}
			r.segs[i] = nil
		}
		r.bstart++
		r.evict0 = 0
		r.liveN -= size
		excess -= size
	}
}

// compact slides the header slices down once their dead prefixes
// dominate. Only slice headers and ints move, never records.
func (r *Recorder) compact() {
	if r.bstart > 0 && r.bstart > len(r.bounds)/2 {
		first := 0
		if r.bstart < len(r.bounds) {
			first = r.bounds[r.bstart].seg
		} else {
			first = len(r.segs)
		}
		ns := copy(r.segs, r.segs[first:])
		for i := ns; i < len(r.segs); i++ {
			r.segs[i] = nil
		}
		r.segs = r.segs[:ns]
		nb := copy(r.bounds, r.bounds[r.bstart:])
		r.bounds = r.bounds[:nb]
		for i := range r.bounds {
			r.bounds[i].seg -= first
		}
		r.bstart = 0
	}
	// The free list only needs enough slack to re-arm every outbox; a
	// deep list just pins dead arrays.
	if len(r.free) > 64 {
		for i := 64; i < len(r.free); i++ {
			r.free[i] = nil
		}
		r.free = r.free[:64]
	}
}

// Emitted returns the total records offered to the ring.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.emitted
}

// Dropped returns how many records the recorder evicted — the flight
// recorder's loss accounting. Deterministic: the emission count is a
// model property, so dropped = emitted − capacity whenever positive.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.emitted - uint64(r.Len())
}

// Len returns the records currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.liveN + r.openN + len(r.tail)
}

// Intern registers a display name and returns its stable 16-bit id.
// Call at setup time (it may allocate), never on the hot path; the
// single-threaded configuration order makes ids deterministic.
func (r *Recorder) Intern(name string) uint16 {
	if r == nil {
		return 0
	}
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := uint16(len(r.names))
	r.names = append(r.names, name)
	r.byName[name] = id
	return id
}

// Label attaches a display label to a (layer, id) track — the Perfetto
// thread name for that queue, route, or replica. Setup-time only.
func (r *Recorder) Label(l Layer, id uint32, label string) {
	if r == nil {
		return
	}
	r.labels[uint64(l)<<32|uint64(id)] = label
}

// Records returns the retained records in canonical (At, Key, A, B)
// order. The gather and the sort are the export path's cost, not the
// model's; this is also where a partially evicted oldest batch
// resolves which records it lost (its canonically smallest).
func (r *Recorder) Records() []Rec {
	if r == nil || r.Len() == 0 {
		return nil
	}
	out := make([]Rec, 0, r.Len()+r.evict0)
	firstN := 0
	for i := r.bstart; i < len(r.bounds); i++ {
		end := len(r.segs)
		if i+1 < len(r.bounds) {
			end = r.bounds[i+1].seg
		} else {
			end -= r.openS
		}
		for s := r.bounds[i].seg; s < end; s++ {
			out = append(out, r.segs[s]...)
		}
		if i == r.bstart {
			firstN = len(out)
		}
	}
	if r.evict0 > 0 {
		// The oldest batch dropped its canonically smallest records.
		slices.SortFunc(out[:firstN], cmp)
		out = out[r.evict0:]
	}
	for _, seg := range r.segs[len(r.segs)-r.openS:] {
		out = append(out, seg...)
	}
	out = append(out, r.tail...)
	slices.SortFunc(out, cmp)
	return out
}

// Buffer is a per-shard record outbox: emissions append thread-locally
// on the shard's goroutine, the shard's worker feeds them to the
// shard's own sampler, and the barrier drains them into the central
// recorder. Steady state reuses the backing array, so emitting is
// allocation-free once warm. A nil *Buffer is the disabled state.
type Buffer struct {
	recs []Rec
}

// Emit appends one record. Safe on a nil receiver.
func (b *Buffer) Emit(at cycles.Cycles, key, a, b2 uint64) {
	if b == nil {
		return
	}
	b.recs = append(b.recs, Rec{At: at, Key: key, A: a, B: b2})
}

// Take returns the buffered records; the caller must finish with them
// before the next Emit. Reset recycles the storage.
func (b *Buffer) Take() []Rec {
	if b == nil {
		return nil
	}
	return b.recs
}

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() {
	if b != nil {
		b.recs = b.recs[:0]
	}
}

// FlushTo hands the buffered records to the recorder's open batch by
// ownership transfer — the recorder keeps the backing array as one
// segment and the buffer re-arms with recycled storage from a
// previously evicted segment. The barrier's merge step is therefore a
// pointer swap, never a copy.
func (b *Buffer) FlushTo(r *Recorder) {
	if b == nil || len(b.recs) == 0 {
		return
	}
	b.recs = r.flush(b.recs)
}

// Stream fans one emission into the trace ring and the windowed
// sampler — the single-engine wiring, where emission order is already
// monotone in virtual time. Either half may be nil.
type Stream struct {
	Rec *Recorder
	Smp *Sampler
}

// Emit forwards to both halves.
func (s *Stream) Emit(at cycles.Cycles, key, a, b uint64) {
	s.Rec.Emit(at, key, a, b)
	s.Smp.Feed(at, key, a, b)
}
