package sim

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

// TestSuspendResume models a migration blackout: in-flight jobs drain,
// held and newly arriving jobs wait, and Resume restarts dispatch in
// FIFO order.
func TestSuspendResume(t *testing.T) {
	eng := NewEngine()
	q := NewQueue(eng, "q", 1)
	var order []uint64
	q.OnDone = func(j Job) { order = append(order, j.ID) }

	q.Arrive(Job{ID: 1, Cost: 100}) // in service immediately
	q.Arrive(Job{ID: 2, Cost: 100}) // waiting
	q.Suspend()
	if !q.Suspended() {
		t.Fatal("queue not suspended")
	}
	eng.Run(500)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("during suspension completed %v, want only the in-flight job 1", order)
	}
	if q.Depth() != 1 {
		t.Fatalf("depth = %d, want the held job still in system", q.Depth())
	}

	q.Arrive(Job{ID: 3, Cost: 100}) // arrives into the frozen queue
	eng.Run(1000)
	if len(order) != 1 {
		t.Fatalf("suspended queue dispatched: %v", order)
	}

	q.Resume()
	eng.RunUntilIdle()
	want := []uint64{1, 2, 3}
	if len(order) != 3 || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
	if q.Completed != 3 || q.Arrived != 3 {
		t.Fatalf("arrived/completed = %d/%d, want 3/3", q.Arrived, q.Completed)
	}
}

// TestSuspendHoldsMultiServer: Resume refills every free server.
func TestSuspendHoldsMultiServer(t *testing.T) {
	eng := NewEngine()
	q := NewQueue(eng, "q", 2)
	q.Suspend()
	for i := 1; i <= 4; i++ {
		q.Arrive(Job{ID: uint64(i), Cost: 50})
	}
	eng.Run(200)
	if q.Completed != 0 {
		t.Fatalf("suspended queue completed %d jobs", q.Completed)
	}
	q.Resume()
	eng.RunUntilIdle()
	if q.Completed != 4 {
		t.Fatalf("completed = %d, want 4 after resume", q.Completed)
	}
	// Two servers, four 50-cycle jobs held until t=200: all done by 300.
	if eng.Now() != 300 {
		t.Fatalf("finished at %v, want cycle 300", eng.Now())
	}
}

// TestTakeWaiting: only the waiting backlog is removed (and returned in
// FIFO order); jobs in service complete, and depth accounting reflects
// the removal.
func TestTakeWaiting(t *testing.T) {
	eng := NewEngine()
	q := NewQueue(eng, "q", 1)
	q.Arrive(Job{ID: 1, Cost: 100}) // in service
	q.Arrive(Job{ID: 2, Cost: 100}) // waiting
	q.Arrive(Job{ID: 3, Cost: 100}) // waiting
	got := q.TakeWaiting()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("TakeWaiting = %+v, want jobs 2 and 3 in order", got)
	}
	if q.Depth() != 1 {
		t.Fatalf("depth = %d, want the in-service job only", q.Depth())
	}
	eng.RunUntilIdle()
	if q.Completed != 1 {
		t.Fatalf("completed = %d, want only the in-service job", q.Completed)
	}
	if got := q.TakeWaiting(); got != nil {
		t.Fatalf("empty TakeWaiting = %+v, want nil", got)
	}
}

// TestOnStartHook: OnStart fires at service entry, not admission.
func TestOnStartHook(t *testing.T) {
	eng := NewEngine()
	q := NewQueue(eng, "q", 1)
	var starts []uint64
	q.OnStart = func(j Job) { starts = append(starts, j.ID) }
	q.Arrive(Job{ID: 1, Cost: 100})
	q.Arrive(Job{ID: 2, Cost: 100})
	if len(starts) != 1 || starts[0] != 1 {
		t.Fatalf("starts at admission = %v, want only job 1 in service", starts)
	}
	eng.RunUntilIdle()
	if len(starts) != 2 || starts[1] != 2 {
		t.Fatalf("starts = %v, want 1 then 2", starts)
	}
}

// TestSuspendLatencyCharged: time spent frozen appears in sojourn.
func TestSuspendLatencyCharged(t *testing.T) {
	eng := NewEngine()
	q := NewQueue(eng, "q", 1)
	var sojourn obs.Histogram
	q.OnDone = func(j Job) { sojourn.Observe(eng.Now() - j.Born) }
	q.Suspend()
	q.Arrive(Job{ID: 1, Cost: 10, Born: eng.Now()})
	eng.After(1000, q.Resume)
	eng.RunUntilIdle()
	if got := sojourn.Max(); got != cycles.Cycles(1010) {
		t.Fatalf("sojourn = %v, want 1010 (1000 frozen + 10 service)", got)
	}
}
