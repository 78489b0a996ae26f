package cluster

import (
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
// JSQ picks are O(1): replicas hang off per-depth FIFO buckets
// (intrusive lists through the next array), a pick pops the shallowest
// bucket's head and reinserts one bucket deeper, and the bucket cursor
// only ever moves up between rebuilds. The FIFO order doubles as the
// rotating tie-break — equal-depth replicas take turns in the order the
// rebuild enqueued them.
//
// The snapshot is incremental. Between barriers a replica's queue
// depth moves only when a barrier assigned it work (listed in picked)
// or it completed a job (listed by its shard, see noteDone), and
// membership moves only in chaos and control steps, which mark the
// table dirty or rebuild it outright. A barrier therefore re-reads the
// listed replicas alone (refresh) and rescans the fleet only when
// membership changed (rebuild); both leave the same table. A list
// stops growing at listCap entries: refresh then reads every queue in
// one sequential pass, which beats scattered reads once a quarter of
// the fleet is listed (a saturated closed loop completes on nearly
// every replica each epoch).
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
	next  []int32 // intrusive bucket list, -1 terminated
	head  [tableBuckets]int32
	tail  [tableBuckets]int32
	cur   int // lowest possibly non-empty bucket
	top   int // highest bucket enqueued since the last refill

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

	rr    int  // rotating cursor for rr/weighted picks
	dirty bool // membership changed since the last rebuild
}

func newFleetTable(c *Cluster, lb ingress.Policy) *fleetTable {
	// top starts at the last bucket: the first refill clears them all.
	return &fleetTable{c: c, lb: lb, dirty: true, top: tableBuckets - 1}
}

// rebuild resnapshots every replica's depth and routability: O(fleet).
// Called when membership may have changed — at the run's start, and at
// a barrier whose chaos or control step ran or that found the table
// dirty.
func (t *fleetTable) rebuild() {
	n := len(t.c.containers)
	if cap(t.depth) < n {
		t.depth = make([]int32, n, 2*n)
		t.next = make([]int32, n, 2*n)
		t.pos = make([]int32, n, 2*n)
		t.listed = make([]uint32, n, 2*n)
		t.ups = make([]int32, 0, 2*n)
	}
	t.depth = t.depth[:n]
	t.next = t.next[:n]
	t.pos = t.pos[:n]
	t.listed = t.listed[:n]
	t.listCap = (n + 3) / 4
	t.ups = t.ups[:0]
	t.sum = 0
	for i, ct := range t.c.containers {
		t.depth[i] = int32(ct.q.Depth())
		t.pos[i] = -1
		if !t.c.routableCt(ct) {
			continue
		}
		t.pos[i] = int32(len(t.ups))
		t.ups = append(t.ups, int32(i))
		t.sum += int(t.depth[i])
	}
	t.dirty = false
	t.settle()
}

// refresh resnapshots the fleet at a barrier whose membership is
// unchanged: only listed replicas are re-read, so the cost is
// O(touched), plus O(routable) for the JSQ refill.
func (t *fleetTable) refresh() {
	if t.dirty {
		t.rebuild()
		return
	}
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
	} else {
		t.reread(t.picked)
		for i := range shards {
			t.reread(shards[i].touched)
		}
	}
	t.settle()
}

// reread refreshes the listed replicas' depths and the routable sum.
func (t *fleetTable) reread(reps []int32) {
	for _, r := range reps {
		d := int32(t.c.containers[r].q.Depth())
		if t.pos[r] >= 0 {
			t.sum += int(d - t.depth[r])
		}
		t.depth[r] = d
	}
}

// settle closes a snapshot: it empties the touched lists, opens the
// next generation, and refills the JSQ buckets in ups (id) order.
func (t *fleetTable) settle() {
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
	for _, u := range t.ups {
		t.enqueue(u, bucketFor(t.depth[u]))
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

// enqueue appends rep to bucket b's FIFO.
func (t *fleetTable) enqueue(rep int32, b int) {
	t.next[rep] = -1
	if t.tail[b] < 0 {
		t.head[b] = rep
		t.tail[b] = rep
	} else {
		t.next[t.tail[b]] = rep
		t.tail[b] = rep
	}
	if b < t.cur {
		t.cur = b
	}
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

// pickJSQ pops the shallowest bucket's head and reinserts it one
// deeper — O(1) amortized, FIFO rotation on ties.
func (t *fleetTable) pickJSQ() int {
	for t.cur < tableBuckets && t.head[t.cur] < 0 {
		t.cur++
	}
	if t.cur == tableBuckets {
		t.cur = tableBuckets - 1 // park on the top bucket for reinserts
		if t.head[t.cur] < 0 {
			return -1
		}
	}
	rep := t.head[t.cur]
	t.head[t.cur] = t.next[rep]
	if t.head[t.cur] < 0 {
		t.tail[t.cur] = -1
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
