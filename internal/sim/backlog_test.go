package sim

import (
	"bytes"
	"fmt"
	"testing"

	"xcontainers/internal/cycles"
)

// backlogModel is the reference FuzzQueueBacklog checks Queue against:
// the same station with its backlog in a plain slice and its integrals
// in exact integers.
type backlogModel struct {
	servers   int
	suspended bool
	inService map[uint64]cycles.Cycles // job id → completion time
	waiting   []Job

	arrived, completed uint64
	depth, maxDepth    int
	depthArea          int64
	depthLast          cycles.Cycles
	busyArea           int64
	busyLast           cycles.Cycles
}

func (m *backlogModel) noteDepth(now cycles.Cycles, d int) {
	m.depthArea += int64(m.depth) * int64(now-m.depthLast)
	m.depthLast = now
	m.depth += d
	m.maxDepth = max(m.maxDepth, m.depth)
}

func (m *backlogModel) noteBusy(now cycles.Cycles) {
	m.busyArea += int64(len(m.inService)) * int64(now-m.busyLast)
	m.busyLast = now
}

func (m *backlogModel) start(now cycles.Cycles, j Job) {
	m.noteBusy(now)
	m.inService[j.ID] = now + j.Cost
}

// arrive admits j and returns the job that starts service, if any.
func (m *backlogModel) arrive(now cycles.Cycles, j Job) []Job {
	m.arrived++
	m.noteDepth(now, 1)
	if len(m.inService) < m.servers && !m.suspended {
		m.start(now, j)
		return []Job{j}
	}
	m.waiting = append(m.waiting, j)
	return nil
}

// fill starts waiting jobs while servers are free and dispatch is open,
// returning them in start order.
func (m *backlogModel) fill(now cycles.Cycles) []Job {
	var started []Job
	for !m.suspended && len(m.inService) < m.servers && len(m.waiting) > 0 {
		j := m.waiting[0]
		m.waiting = m.waiting[1:]
		m.start(now, j)
		started = append(started, j)
	}
	return started
}

// complete finishes job id at now: it must be in service, due now, and
// no other job in service may be due earlier.
func (m *backlogModel) complete(now cycles.Cycles, id uint64) ([]Job, error) {
	end, ok := m.inService[id]
	if !ok {
		return nil, fmt.Errorf("job %d completed but is not in service", id)
	}
	if end != now {
		return nil, fmt.Errorf("job %d completed at %d, due at %d", id, now, end)
	}
	for other, e := range m.inService {
		if e < end {
			return nil, fmt.Errorf("job %d completed at %d before job %d due at %d", id, now, other, e)
		}
	}
	m.completed++
	m.noteDepth(now, -1)
	m.noteBusy(now)
	delete(m.inService, id)
	return m.fill(now), nil
}

// qevent is one hook call the queue made: a start or a completion.
type qevent struct {
	done bool
	at   cycles.Cycles
	job  Job
}

// checkBacklog replays prog against a Queue and the model. data[0]
// picks 1-3 servers; then come two-byte ops (op, arg) with op%8:
//
//	0-2  Arrive a job of cost arg%24 (0 completes at its start instant)
//	3    Step one event
//	4    Run arg cycles ahead
//	5    Suspend
//	6    Resume
//	7    TakeWaiting
//
// After every op the hook log, depth, MaxDepth, MeanDepth and
// Utilization must agree; at the end both drain and agree again.
func checkBacklog(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) < 1 {
		return
	}
	servers := 1 + int(prog[0])%3
	e := NewEngine()
	q := NewQueue(e, "fuzz", servers)
	var log []qevent
	q.OnStart = func(j Job) { log = append(log, qevent{at: e.Now(), job: j}) }
	q.OnDone = func(j Job) { log = append(log, qevent{done: true, at: e.Now(), job: j}) }
	m := &backlogModel{servers: servers, inService: map[uint64]cycles.Cycles{}}

	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (servers %d): %s", step, servers, fmt.Sprintf(format, args...))
	}
	sameStarts := func(step int, got []qevent, want []Job) {
		t.Helper()
		if len(got) != len(want) {
			fail(step, "started %d jobs %v, want %v", len(got), got, want)
		}
		for i := range got {
			if got[i].done || got[i].job != want[i] {
				fail(step, "start %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	// replay feeds completion log entries to the model. The queue
	// starts the next waiting job before it reports the completion, so
	// a start logged inside a completion precedes its done entry.
	replay := func(step int, evs []qevent) {
		t.Helper()
		for len(evs) > 0 {
			var started []qevent
			for len(evs) > 0 && !evs[0].done {
				started = append(started, evs[0])
				evs = evs[1:]
			}
			if len(evs) == 0 {
				fail(step, "starts %v logged outside a completion", started)
			}
			d := evs[0]
			evs = evs[1:]
			want, err := m.complete(d.at, d.job.ID)
			if err != nil {
				fail(step, "%v", err)
			}
			sameStarts(step, started, want)
		}
	}
	compare := func(step int) {
		t.Helper()
		now := e.Now()
		if q.Depth() != m.depth || q.MaxDepth() != m.maxDepth {
			fail(step, "depth %d max %d, want %d max %d", q.Depth(), q.MaxDepth(), m.depth, m.maxDepth)
		}
		if q.Arrived != m.arrived || q.Completed != m.completed {
			fail(step, "arrived/completed %d/%d, want %d/%d", q.Arrived, q.Completed, m.arrived, m.completed)
		}
		if now == 0 {
			return
		}
		area := m.depthArea + int64(m.depth)*int64(now-m.depthLast)
		if got, want := q.MeanDepth(now), float64(area)/float64(now); got != want {
			fail(step, "MeanDepth(%d) = %v, want %v", now, got, want)
		}
		busy := m.busyArea + int64(len(m.inService))*int64(now-m.busyLast)
		want := min(float64(busy)/(float64(servers)*float64(now)), 1)
		if got := q.Utilization(now); got != want {
			fail(step, "Utilization(%d) = %v, want %v", now, got, want)
		}
	}

	var id uint64
	ops := prog[1:]
	for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
		op, arg := ops[0]%8, ops[1]
		log = log[:0]
		switch op {
		case 0, 1, 2:
			id++
			j := Job{ID: id, Cost: cycles.Cycles(arg % 24), Born: e.Now(), Stage: int(arg)}
			q.Arrive(j)
			sameStarts(step, log, m.arrive(e.Now(), j))
		case 3:
			e.Step()
			replay(step, log)
		case 4:
			e.Run(e.Now() + cycles.Cycles(arg))
			replay(step, log)
		case 5:
			q.Suspend()
			m.suspended = true
		case 6:
			q.Resume()
			m.suspended = false
			sameStarts(step, log, m.fill(e.Now()))
		case 7:
			got := q.TakeWaiting()
			want := m.waiting
			m.waiting = nil
			m.noteDepth(e.Now(), -len(want))
			if len(got) != len(want) {
				fail(step, "TakeWaiting returned %d jobs, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					fail(step, "TakeWaiting[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
			if len(log) != 0 {
				fail(step, "TakeWaiting started jobs %v", log)
			}
		}
		compare(step)
	}

	log = log[:0]
	q.Resume()
	m.suspended = false
	sameStarts(-1, log, m.fill(e.Now()))
	log = log[:0]
	e.RunUntilIdle()
	replay(-1, log)
	compare(-1)
	if m.depth != 0 || len(m.waiting) != 0 || len(m.inService) != 0 {
		t.Fatalf("model not drained: depth %d, %d waiting, %d in service", m.depth, len(m.waiting), len(m.inService))
	}
}

// backlogSeeds are boundary cases as byte programs (see checkBacklog):
// a backlog spanning several segments drained by completions and by
// TakeWaiting, suspension across segment boundaries, zero-cost jobs
// completing at their start instant, a ring that doubles while head's
// segment is not in slot 0, and one that fills while head's segment
// holds its last job.
func backlogSeeds() [][]byte {
	arrivals := func(n int, cost byte) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, 0, cost+byte(i%3))
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	return [][]byte{
		cat([]byte{0}, arrivals(40, 5), []byte{4, 60, 3, 0, 3, 0}, arrivals(20, 2), []byte{7, 0, 4, 255}),
		cat([]byte{1}, []byte{5, 0}, arrivals(50, 7), []byte{6, 0, 4, 40}, arrivals(31, 1), []byte{3, 0, 7, 0}, arrivals(16, 3)),
		cat([]byte{2}, arrivals(33, 0), []byte{3, 0, 3, 0, 5, 0}, arrivals(15, 4), []byte{4, 9, 6, 0, 7, 0, 7, 0}),
		cat([]byte{0}, arrivals(14, 9), []byte{3, 0}, arrivals(2, 9), []byte{4, 30}, arrivals(30, 9), []byte{5, 0, 4, 200, 7, 0}, arrivals(20, 1)),
		cat([]byte{0}, arrivals(27, 0), []byte{7, 0}, arrivals(24, 0)),
		cat([]byte{0}, arrivals(21, 5), bytes.Repeat([]byte{3, 0}, 15), arrivals(14, 5)),
	}
}

// TestQueueBacklogSeeds runs the seed programs as plain tests.
func TestQueueBacklogSeeds(t *testing.T) {
	for i, prog := range backlogSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkBacklog(t, prog) })
	}
}

// FuzzQueueBacklog checks the segmented waiting FIFO against a plain
// slice model on arbitrary arrival, completion, suspension and
// TakeWaiting sequences.
func FuzzQueueBacklog(f *testing.F) {
	for _, prog := range backlogSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkBacklog(t, prog[:min(len(prog), 1024)])
	})
}
