package sim

import (
	"testing"

	"xcontainers/internal/cycles"
)

// laneDelays are the delays the laned engine declares in the
// differential tests below.
var laneDelays = []cycles.Cycles{3, 5, 8}

// fuzzDelays is what the op stream draws delays from: the declared ones
// (weighted up), undeclared ones and zero. Small values make ties
// between lane keys and heap keys common, and ties are where an order
// bug shows.
var fuzzDelays = []cycles.Cycles{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 3, 5, 8, 3, 5, 8}

// fired is one dispatched event as the oracle sees it: the clock, the
// handler (-1 for an At closure) and the job.
type fired struct {
	now cycles.Cycles
	h   int
	job Job
}

// engineState is what each op leaves observable.
type engineState struct {
	now     cycles.Cycles
	pending int
	fired   uint64
	logLen  int
}

// recorder logs every event it receives; a job with Cost > 0 schedules
// one follow-up Cost cycles ahead, so pushes also happen mid-dispatch.
type recorder struct {
	id  int
	ref HandlerRef
	log *[]fired
}

func (r *recorder) HandleEvent(e *Engine, j Job) {
	*r.log = append(*r.log, fired{e.Now(), r.id, j})
	if j.Cost > 0 {
		e.Schedule(j.Cost, r.ref, Job{ID: j.ID | 1<<32})
	}
}

// runLaneProgram replays prog on e, two bytes per op, then drains the
// engine. It returns every fired event and the state after each op.
func runLaneProgram(e *Engine, prog []byte) ([]fired, []engineState) {
	var log []fired
	var hs [2]*recorder
	for i := range hs {
		hs[i] = &recorder{id: i, log: &log}
		hs[i].ref = e.Register(hs[i])
	}
	var states []engineState
	var id uint64
	for p := 0; p+1 < len(prog); p += 2 {
		op, arg := prog[p], prog[p+1]
		id++
		d := fuzzDelays[int(arg)%len(fuzzDelays)]
		h := hs[arg>>7]
		job := Job{ID: id}
		if arg&0x40 != 0 {
			job.Cost = fuzzDelays[int(arg>>2)%len(fuzzDelays)]
		}
		switch op % 8 {
		case 0, 1:
			e.Schedule(d, h.ref, job)
		case 2:
			e.Schedule(0, h.ref, job)
		case 3:
			// Into the past: clamps to now, so it joins the heap.
			e.ScheduleAt(e.Now()-min(e.Now(), cycles.Cycles(arg%8)), h.ref, job)
		case 4:
			// Closures always use the heap, even at a declared delay.
			e.At(e.Now()+d, func() { log = append(log, fired{e.Now(), -1, job}) })
		case 5:
			e.Run(e.Now() + cycles.Cycles(arg%16))
		case 6:
			e.Step()
		case 7:
			e.ScheduleAt(e.Now()+cycles.Cycles(arg%24), h.ref, job)
		}
		states = append(states, engineState{e.Now(), e.Pending(), e.Fired(), len(log)})
	}
	e.RunUntilIdle()
	states = append(states, engineState{e.Now(), e.Pending(), e.Fired(), len(log)})
	return log, states
}

// checkLanesAgainstHeap replays prog on an engine with lanes and on one
// without and requires the same fire sequence and the same observable
// state after every op.
func checkLanesAgainstHeap(t *testing.T, prog []byte) {
	t.Helper()
	laned := NewEngine()
	for _, d := range laneDelays {
		laned.DeclareDelay(d)
	}
	gotLog, gotStates := runLaneProgram(laned, prog)
	wantLog, wantStates := runLaneProgram(NewEngine(), prog)
	for i := range wantStates {
		if gotStates[i] != wantStates[i] {
			t.Fatalf("after op %d: laned engine %+v, heap-only engine %+v", i, gotStates[i], wantStates[i])
		}
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("event %d: laned engine fired %+v, heap-only engine %+v", i, gotLog[i], wantLog[i])
		}
	}
	if laned.Pending() != 0 || laned.laned != 0 {
		t.Fatalf("drained laned engine still holds %d events (%d in lanes)", laned.Pending(), laned.laned)
	}
}

// laneSeeds are the fuzz corpus: hand-written shapes plus pseudo-random
// programs long enough to wrap and grow the rings.
func laneSeeds() [][]byte {
	seeds := [][]byte{
		{0, 1, 0, 3, 0, 5, 6, 0, 6, 0, 6, 0},       // declared delays only, stepped
		{0, 1, 4, 1, 7, 3, 5, 15, 5, 15},           // lane vs closure tie at one instant
		{0, 0x41, 0, 0x45, 2, 0, 3, 7, 5, 9, 6, 0}, // follow-ups, zero and past delays
	}
	r := NewRand(24)
	for n := 0; n < 8; n++ {
		prog := make([]byte, 64+int(r.Uint64()%448))
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		seeds = append(seeds, prog)
	}
	return seeds
}

// FuzzEngineLanes is the lanes' differential oracle: the heap-only
// engine is the reference, and any op stream must fire identically on
// an engine that declares delays.
func FuzzEngineLanes(f *testing.F) {
	for _, prog := range laneSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkLanesAgainstHeap(t, prog[:min(len(prog), 1024)])
	})
}

// TestDeclareDelayIgnoresZeroAndRepeats pins the declaration rules: a
// zero delay is no lane, a repeat is the same lane, and past maxLanes
// declarations are dropped.
func TestDeclareDelayIgnoresZeroAndRepeats(t *testing.T) {
	e := NewEngine()
	e.DeclareDelay(0)
	e.DeclareDelay(7)
	e.DeclareDelay(7)
	if e.nlanes != 1 || e.delays[0] != 7 {
		t.Fatalf("declared %v, want [7]", e.delays[:e.nlanes])
	}
	for d := cycles.Cycles(1); d <= 2*maxLanes; d++ {
		e.DeclareDelay(d)
	}
	if e.nlanes != maxLanes {
		t.Fatalf("%d lanes declared, want the cap %d", e.nlanes, maxLanes)
	}
	h := &countHandler{}
	ref := e.Register(h)
	e.Schedule(7, ref, Job{})
	e.Schedule(2*maxLanes, ref, Job{}) // undeclared: the heap
	if e.laned != 1 || len(e.keys) != 1 {
		t.Fatalf("lanes hold %d, heap %d; want 1 and 1", e.laned, len(e.keys))
	}
	e.RunUntilIdle()
	if h.n != 2 || e.Now() != 2*maxLanes {
		t.Fatalf("fired %d by %v, want 2 by %v", h.n, e.Now(), cycles.Cycles(2*maxLanes))
	}
}
