package cluster

import (
	"math/bits"

	"xcontainers/internal/ingress"
	"xcontainers/internal/sim"
)

// tableBuckets caps the depth resolution of the bucketed JSQ structure:
// replicas deeper than the cap share the top bucket (at that backlog
// the fleet is drowning and exact ordering is meaningless). 4096 keeps
// the bucket arrays at 32 KiB while resolving any depth a stable fleet
// reaches.
const tableBuckets = 4096

// fleetTable is the sharded engine's routing view of the fleet: an
// epoch snapshot of every replica's queue depth plus the assignments
// made against it since the snapshot. All decisions that legacy code
// took by scanning live queues — JSQ dispatch, ingress load balancing —
// read this table instead, so routing is a pure function of
// barrier-time state and therefore identical for any shard layout.
//
// JSQ picks are O(1) amortized: a pick pops the front of the
// shallowest non-empty depth bucket and reinserts the replica at the
// tail of the bucket one deeper, and the bucket cursor only ever moves
// up between snapshots. A bucket reads front to back as its snapshot
// members in id order, then the epoch's reinserts in FIFO order, which
// doubles as the rotating tie-break: equal-depth replicas take turns
// by id. The two parts are stored apart. Snapshot members sit in a
// per-bucket id bitset (sets; in records which set holds a replica),
// and a pop takes the lowest set bit before it falls back to the FIFO
// (intrusive lists through the next array). The sets outlive the
// snapshot: a replica's set is stale only when it was picked or its
// depth moved, and those replicas are exactly the listed ones below.
//
// The snapshot is incremental. Between barriers a replica's queue
// depth moves only when a barrier assigned it work (listed in picked)
// or it completed a job (listed by its shard, see noteDone), and
// membership moves only in chaos and control steps, after which the
// barrier rebuilds the table. A barrier therefore re-reads the listed
// replicas alone (refresh) and rescans the fleet only after a step
// that may have changed membership (rebuild); both leave the same
// table. A list stops growing at listCap entries: refresh then reads
// every queue in one sequential pass, which beats scattered reads once
// a quarter of the fleet is listed (a saturated closed loop completes
// on nearly every replica each epoch). Refresh moves only the listed
// replicas between JSQ sets and empties the FIFOs, so a barrier costs
// what the epoch touched; rebuild and the full pass refill the sets
// from ups in the same sequential pass that read the queues.
type fleetTable struct {
	c  *Cluster
	lb ingress.Policy // JSQ for the plain front door; the route's LB behind ingress
	// rng drives PowerOfTwo sampling; it is the dedicated routing
	// stream (seed ^ 0x16c4e5500), same as the single-engine graph's.
	rng *sim.Rand

	depth []int32 // effective depth: barrier snapshot + epoch assignments
	ups   []int32 // routable replica indices in id order
	pos   []int32 // replica index -> its position in ups, -1 when not routable
	sum   int     // Σ depth over ups: the routable backlog
	sets  [tableBuckets]idSet
	in    []int32 // replica index -> the bucket whose set holds it, -1 when none
	hi    int     // highest bucket whose set was filled since the last refill
	next  []int32 // intrusive FIFO list of the epoch's reinserts, -1 terminated
	head  [tableBuckets]int32
	tail  [tableBuckets]int32
	cur   int // lowest possibly non-empty bucket
	top   int // highest bucket whose FIFO was appended to since the last snapshot

	// picked lists the replicas assigned work since the last snapshot,
	// once each: listed[rep] == gen marks the listed ones. Every
	// snapshot opens a new generation, which empties the list, and the
	// shards' completion lists with it. Completion marks live on the
	// containers, which the completing shard already holds, because
	// neighbouring replica indices belong to different shards; pick
	// marks stay in this dense array, off the containers' cache lines.
	picked  []int32
	listed  []uint32
	gen     uint32
	listCap int // length at which a touched list stops growing

	rr int // rotating cursor for rr/weighted picks

	// check, when set, runs at the end of every refresh. Only tests set
	// it, to compare the snapshot with a rebuild; it may run on a pool
	// worker (see processDone).
	check func(*fleetTable)
}

// idSet is a bitset over dense ids with a member count and a low-word
// hint: one JSQ bucket's snapshot members here (replica indices, sized
// to the fleet when the bucket is first filled), one placement bucket's
// nodes in placement.go. The owner sizes words before insert.
type idSet struct {
	words []uint64
	n     int32 // members
	lo    int32 // while n > 0, no member sits below word lo
}

// insert adds id, which must not be a member; its word must exist.
func (s *idSet) insert(id int32) {
	w := id >> 6
	s.words[w] |= 1 << (id & 63)
	if s.n == 0 || w < s.lo {
		s.lo = w
	}
	s.n++
}

// remove takes member id out.
func (s *idSet) remove(id int32) {
	s.words[id>>6] &^= 1 << (id & 63)
	s.n--
}

// lowest returns the lowest member of the non-empty set and moves the
// hint up to its word.
func (s *idSet) lowest() int32 {
	w := s.lo
	for s.words[w] == 0 {
		w++
	}
	s.lo = w
	return w<<6 | int32(bits.TrailingZeros64(s.words[w]))
}

func newFleetTable(c *Cluster, lb ingress.Policy) *fleetTable {
	// top starts at the last bucket: the first snapshot clears every FIFO.
	return &fleetTable{c: c, lb: lb, top: tableBuckets - 1}
}

// rebuild resnapshots every replica's depth and routability: O(fleet).
// Called when membership may have changed: at the run's start, and at
// the end of a barrier whose chaos step reported a change or whose
// control step ran.
func (t *fleetTable) rebuild() {
	n := len(t.c.containers)
	if cap(t.depth) < n {
		t.depth = make([]int32, n, 2*n)
		t.next = make([]int32, n, 2*n)
		t.pos = make([]int32, n, 2*n)
		t.in = make([]int32, n, 2*n)
		t.listed = make([]uint32, n, 2*n)
		t.ups = make([]int32, 0, 2*n)
	}
	t.depth = t.depth[:n]
	t.next = t.next[:n]
	t.pos = t.pos[:n]
	t.in = t.in[:n]
	t.listed = t.listed[:n]
	t.listCap = (n + 3) / 4
	t.ups = t.ups[:0]
	t.sum = 0
	for i, ct := range t.c.containers {
		t.depth[i] = int32(ct.q.Depth())
		t.pos[i] = -1
		t.in[i] = -1
		if !t.c.routableCt(ct) {
			continue
		}
		t.pos[i] = int32(len(t.ups))
		t.ups = append(t.ups, int32(i))
		t.sum += int(t.depth[i])
	}
	t.settle(true)
}

// refresh resnapshots the fleet at a barrier whose membership is
// unchanged: only listed replicas are re-read and re-placed, so the
// cost is O(touched) — or one sequential O(fleet) pass once the lists
// overflowed.
func (t *fleetTable) refresh() {
	shards := t.c.sh.shards
	n := len(t.picked)
	for i := range shards {
		n += len(shards[i].touched)
	}
	if n >= t.listCap {
		t.sum = 0
		for i, ct := range t.c.containers {
			t.depth[i] = int32(ct.q.Depth())
			if t.pos[i] >= 0 {
				t.sum += int(t.depth[i])
			}
		}
		t.settle(true)
	} else {
		t.reread(t.picked)
		for i := range shards {
			t.reread(shards[i].touched)
		}
		t.settle(false)
	}
	if t.check != nil {
		t.check(t)
	}
}

// reread refreshes the listed replicas' depths and the routable sum,
// and moves each routable one into the JSQ set of its depth: out of
// its old set if it is still there, and off the FIFOs, which settle
// empties. A replica listed twice is moved twice, to the same set.
func (t *fleetTable) reread(reps []int32) {
	jsq := t.lb == ingress.JSQ
	for _, r := range reps {
		d := int32(t.c.containers[r].q.Depth())
		if t.pos[r] >= 0 {
			t.sum += int(d - t.depth[r])
			if jsq {
				t.unplace(r)
				t.place(r, bucketFor(d))
			}
		}
		t.depth[r] = d
	}
}

// settle closes a snapshot: it empties the touched lists, opens the
// next generation and the JSQ FIFOs, and with refill refills the JSQ
// sets from ups.
func (t *fleetTable) settle(refill bool) {
	t.picked = t.picked[:0]
	shards := t.c.sh.shards
	for i := range shards {
		shards[i].touched = shards[i].touched[:0]
	}
	t.gen++
	if t.lb != ingress.JSQ {
		return
	}
	for b := 0; b <= t.top; b++ {
		t.head[b] = -1
		t.tail[b] = -1
	}
	t.cur, t.top = 0, 0
	if !refill {
		return
	}
	for b := 0; b <= t.hi; b++ {
		if s := &t.sets[b]; s.n > 0 {
			clear(s.words[s.lo:])
			s.n = 0
		}
	}
	t.hi = 0
	for _, u := range t.ups {
		t.place(u, bucketFor(t.depth[u]))
	}
}

// assign records one request routed to rep since the snapshot and
// lists rep for the next refresh.
func (t *fleetTable) assign(rep int32) {
	t.depth[rep]++
	if t.pos[rep] >= 0 {
		t.sum++
	}
	if t.listed[rep] != t.gen && len(t.picked) < t.listCap {
		t.listed[rep] = t.gen
		t.picked = append(t.picked, rep)
	}
}

// noteDone lists ct for the next refresh after it completed a job. It
// runs on ct's shard goroutine and writes only ct and that shard's
// list, so it needs no synchronisation: the table fields it reads
// change only at barriers, and the barrier reads what it wrote after
// the worker handshake. Once picked is full the refresh reads every
// queue anyway, so nothing more is listed.
func (t *fleetTable) noteDone(ct *container, ss *shardState) {
	if ct.mark != t.gen && len(ss.touched) < t.listCap && len(t.picked) < t.listCap {
		ct.mark = t.gen
		ss.touched = append(ss.touched, int32(ct.id-1))
	}
}

func bucketFor(d int32) int {
	if d >= tableBuckets {
		return tableBuckets - 1
	}
	return int(d)
}

// place adds rep to bucket b's set.
func (t *fleetTable) place(rep int32, b int) {
	s := &t.sets[b]
	w := rep >> 6
	if int(w) >= len(s.words) {
		words := make([]uint64, (len(t.in)+63)/64, (cap(t.in)+63)/64)
		copy(words, s.words)
		s.words = words
	}
	s.insert(rep)
	t.in[rep] = int32(b)
	if b > t.hi {
		t.hi = b
	}
}

// unplace takes rep out of the set holding it, if any.
func (t *fleetTable) unplace(rep int32) {
	b := t.in[rep]
	if b < 0 {
		return
	}
	t.sets[b].remove(rep)
	t.in[rep] = -1
}

// popSet takes the lowest id out of bucket b's non-empty set.
func (t *fleetTable) popSet(b int) int32 {
	s := &t.sets[b]
	rep := s.lowest()
	s.remove(rep)
	t.in[rep] = -1
	return rep
}

// enqueue appends rep to bucket b's FIFO. Reinserts never land below
// the cursor: a replica's depth is at least its bucket's minus one
// (only pickOther lowers a depth, by one, right after a reinsert), so
// the assigned depth of a popped replica maps back to at least its
// bucket.
func (t *fleetTable) enqueue(rep int32, b int) {
	t.next[rep] = -1
	if t.tail[b] < 0 {
		t.head[b] = rep
	} else {
		t.next[t.tail[b]] = rep
	}
	t.tail[b] = rep
	if b > t.top {
		t.top = b
	}
}

// pick selects one replica under the table's policy and records the
// assignment (so the next pick this epoch sees the queued request), or
// returns -1 with nothing routable. Deterministic: every choice is a
// function of table state and, for p2c, the seeded routing stream.
func (t *fleetTable) pick() int {
	switch t.lb {
	case ingress.JSQ:
		return t.pickJSQ()
	case ingress.PowerOfTwo:
		return t.pickP2C()
	}
	return t.pickRR()
}

// pickJSQ pops the shallowest bucket's front and reinserts it one
// deeper — O(1) amortized, rotation by id on ties.
func (t *fleetTable) pickJSQ() int {
	for t.cur < tableBuckets && t.sets[t.cur].n == 0 && t.head[t.cur] < 0 {
		t.cur++
	}
	if t.cur == tableBuckets {
		t.cur = tableBuckets - 1 // park on the top bucket for reinserts
		if t.sets[t.cur].n == 0 && t.head[t.cur] < 0 {
			return -1
		}
	}
	var rep int32
	if t.sets[t.cur].n > 0 {
		rep = t.popSet(t.cur)
	} else {
		rep = t.head[t.cur]
		t.head[t.cur] = t.next[rep]
		if t.head[t.cur] < 0 {
			t.tail[t.cur] = -1
		}
	}
	t.assign(rep)
	t.enqueue(rep, bucketFor(t.depth[rep]))
	return int(rep)
}

// pickRR rotates over routable replicas (smooth weighted round-robin
// degenerates to exactly this when every weight is 1, which cluster
// replicas all are).
func (t *fleetTable) pickRR() int {
	n := len(t.c.containers)
	for i := 0; i < n; i++ {
		idx := (t.rr + i) % n
		ct := t.c.containers[idx]
		if !t.c.routableCt(ct) {
			continue
		}
		t.rr = idx + 1
		t.assign(int32(idx))
		return idx
	}
	return -1
}

// pickP2C samples two routable replicas from the routing stream and
// joins the shallower; ties keep the first sample, mirroring the
// single-engine balancer.
func (t *fleetTable) pickP2C() int {
	up := len(t.ups)
	if up == 0 {
		return -1
	}
	a := t.ups[int(t.rng.Uint64()%uint64(up))]
	if up > 1 {
		b := t.ups[int(t.rng.Uint64()%uint64(up))]
		if b == a {
			b = t.nextUp(a)
		}
		if t.depth[b] < t.depth[a] {
			a = b
		}
	}
	t.assign(a)
	return int(a)
}

// nextUp returns the routable replica after rep in ups order,
// cyclically — the "different replica" fallback of p2c resampling and
// hedging — or rep itself when it is not routable.
func (t *fleetTable) nextUp(rep int32) int32 {
	if p := t.pos[rep]; p >= 0 {
		return t.ups[(int(p)+1)%len(t.ups)]
	}
	return rep
}

// pickOther prefers a replica different from avoid — the hedge target.
func (t *fleetTable) pickOther(avoid int) int {
	idx := t.pick()
	if idx == avoid && idx >= 0 {
		if alt := t.nextUp(int32(idx)); int(alt) != idx {
			// The assignment moves to the alternate; avoid is routable,
			// since nextUp found it in ups.
			t.depth[avoid]--
			t.sum--
			t.assign(alt)
			return int(alt)
		}
	}
	return idx
}
