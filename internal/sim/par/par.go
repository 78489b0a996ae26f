// Package par runs the parallel phase of the simulator's supersteps:
// the shards of one sharded cluster epoch, the runnable vCPU lanes of
// one SMP quantum, the independent replications of one sweep, and the
// cells of one §5 experiment. Each caller runs items 0..n-1, waits for
// all of them, then does its serial work; which goroutine ran which
// item never reaches a result, because every caller keeps an item's
// state private to it until Run returns (see the callers' own
// determinism arguments).
//
// A Pool keeps its helpers alive across Run calls, so a phase costs one
// wake and one ack per helper, not a goroutine start. The caller's own
// goroutine claims items too: W workers are the caller plus W-1
// helpers. Items are claimed from an atomic counter, so a slow item
// never holds up the others' start.
package par

import "sync/atomic"

// Pool is a fixed set of workers for repeated bulk-synchronous phases.
// Run and Close must be called from one goroutine at a time.
type Pool struct {
	workers int
	// Both channels hold one token per helper: a phase wakes each
	// helper at most once and collects each ack before it returns.
	wake chan struct{}
	ack  chan struct{}

	// The current phase, written by Run before it wakes any helper and
	// read by helpers only between their wake and their ack.
	claim atomic.Int64
	n     int64
	fn    func(int)
}

// New starts a pool of workers workers: the caller of Run plus
// workers-1 helper goroutines. workers <= 1 starts no helper, and Run
// then runs every item inline.
func New(workers int) *Pool {
	p := &Pool{workers: max(workers, 1)}
	if p.workers > 1 {
		p.wake = make(chan struct{}, p.workers-1)
		p.ack = make(chan struct{}, p.workers-1)
		for i := 1; i < p.workers; i++ {
			// The channels are arguments, so a helper never reads
			// p.wake, which Close clears.
			go p.help(p.wake, p.ack)
		}
	}
	return p
}

// Workers returns the pool's width, the caller included.
func (p *Pool) Workers() int { return p.workers }

// Run calls fn(i) once for every i in [0, n) and returns when all of
// the calls have returned. Writes made before Run are visible to every
// call, and every call's writes are visible after Run returns. It
// wakes at most n-1 helpers; with one item or one worker it runs
// inline. Steady state allocates nothing.
func (p *Pool) Run(n int, fn func(int)) {
	h := min(p.workers, n) - 1
	if h <= 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.n, p.fn = int64(n), fn
	p.claim.Store(0)
	for i := 0; i < h; i++ {
		p.wake <- struct{}{}
	}
	p.claimAll()
	for i := 0; i < h; i++ {
		<-p.ack
	}
	p.fn = nil // the pool must not keep the caller's closure alive
}

// Close stops the helpers and returns once every one has exited. The
// pool must not be used afterwards.
func (p *Pool) Close() {
	if p.wake == nil {
		return
	}
	close(p.wake)
	for i := 1; i < p.workers; i++ {
		<-p.ack
	}
	p.wake = nil
}

// help is one helper goroutine: each wake runs claimed items until
// none is left, then acks once; it acks once more as it exits.
func (p *Pool) help(wake <-chan struct{}, ack chan<- struct{}) {
	for range wake {
		p.claimAll()
		ack <- struct{}{}
	}
	ack <- struct{}{}
}

// claimAll runs items until every index of the phase is claimed. An
// item is private to the goroutine that claimed it until Run has
// collected every helper's ack.
func (p *Pool) claimAll() {
	for {
		i := p.claim.Add(1) - 1
		if i >= p.n {
			return
		}
		p.fn(int(i))
	}
}
