package cluster

// placement indexes the live nodes (neither failed nor removed) for
// BinPack and Spread picks: each sits in the id set of its reserved
// replica count k = usedCores / ReplicaCores. Every node has the same
// NodeCores and NodeMemMB and every container reserves ReplicaCores and
// memPer, so whether a node has room for one more replica depends on k
// alone, and the sets below fit hold exactly the nodes that have room.
// A pick walks at most fit sets and takes the lowest id of the first
// non-empty one: O(NodeCores/ReplicaCores) plus an amortised word scan,
// where the node scan it replaced (kept in placement_test.go as the
// oracle) made building a fleet O(replicas × nodes).
type placement struct {
	rc   int     // cores per replica
	fit  int     // sets[:fit] hold the nodes with room for one more replica
	sets []idSet // sets[k]: live nodes holding k replicas, by index id - 1
	live int     // members: the fleet's alive nodes
}

func newPlacement(cfg *Config, memPer int) placement {
	kmax := cfg.NodeCores / cfg.ReplicaCores
	fit := kmax
	if memPer > 0 {
		fit = min(fit, cfg.NodeMemMB/memPer)
	}
	return placement{rc: cfg.ReplicaCores, fit: fit, sets: make([]idSet, kmax+1)}
}

// join adds a fresh node.
func (p *placement) join(n *node) {
	p.put(n)
	p.live++
}

// leave takes a member out for good: the node failed or was removed.
func (p *placement) leave(n *node) {
	p.sets[n.slot].remove(int32(n.id - 1))
	n.slot = -1
	p.live--
}

// host reserves ct's cores and memory on n and counts ct among n's
// containers. host and unhost are the only writers of a node's
// capacity counters, so the index always keys a node by its current
// reservation.
func (p *placement) host(n *node, ct *container) {
	n.usedCores += ct.cores
	n.usedMB += ct.memMB
	n.live++
	p.rekey(n)
}

// unhost releases ct's reservation on n.
func (p *placement) unhost(n *node, ct *container) {
	n.usedCores -= ct.cores
	n.usedMB -= ct.memMB
	n.live--
	p.rekey(n)
}

// rekey moves a member to the set of its current usedCores; a node
// that left stays out.
func (p *placement) rekey(n *node) {
	if n.slot < 0 || int(n.slot) == n.usedCores/p.rc {
		return
	}
	p.sets[n.slot].remove(int32(n.id - 1))
	p.put(n)
}

func (p *placement) put(n *node) {
	i := int32(n.id - 1)
	k := n.usedCores / p.rc
	s := &p.sets[k]
	for int(i>>6) >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.insert(i)
	n.slot = int32(k)
}

// fits reports whether n is live and has room for one more replica.
func (p *placement) fits(n *node) bool {
	return n.slot >= 0 && int(n.slot) < p.fit
}

// pick returns the index (id - 1) of the node the policy prefers
// among those with room, or -1: BinPack takes the fullest set, Spread
// the emptiest, and the lowest id wins within a set — the order of
// usedCores, then id, that the policies define.
func (p *placement) pick(binPack bool) int {
	for j := range p.fit {
		k := j
		if binPack {
			k = p.fit - 1 - j
		}
		if s := &p.sets[k]; s.n > 0 {
			return int(s.lowest())
		}
	}
	return -1
}
