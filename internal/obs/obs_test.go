package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xcontainers/internal/cycles"
)

func TestKeyPacking(t *testing.T) {
	k := Key(KindSpanEnd, LayerIngress, NameAttempt, 0xdeadbeef)
	if KeyKind(k) != KindSpanEnd || KeyLayer(k) != LayerIngress ||
		KeyName(k) != NameAttempt || KeyID(k) != 0xdeadbeef {
		t.Fatalf("key round-trip failed: %#x", k)
	}
}

// TestNilRecorderFastPath: the disabled state is a nil pointer and
// every operation on it is a no-op — the one-branch guarantee.
func TestNilRecorderFastPath(t *testing.T) {
	var r *Recorder
	r.Emit(1, 2, 3, 4)
	if r.Dropped() != 0 || r.Len() != 0 || r.Records() != nil {
		t.Fatal("nil recorder is not inert")
	}
	var b *Buffer
	b.Emit(1, 2, 3, 4)
	if b.Take() != nil {
		t.Fatal("nil buffer is not inert")
	}
	b.Reset()
	var s *Sampler
	s.Feed(1, 2, 3, 4)
	s.Seal(10)
	s.AddMark(1, "x", "")
	if s.Finish(nil) != nil {
		t.Fatal("nil sampler materialized a series")
	}
}

// TestRingOverflowDropAccounting pins the flight-recorder contract:
// capacity C holds the newest C records, everything older is dropped,
// and Dropped() says exactly how many. The single-engine ring is fixed:
// emitting ten times its capacity allocates about C×32 bytes in all,
// and what it keeps is exactly the newest C records.
func TestRingOverflowDropAccounting(t *testing.T) {
	r := NewRecorder(64)
	key := Key(KindCounter, LayerCluster, NameServed, 1)
	for i := 0; i < 200; i++ {
		r.Emit(cycles.Cycles(i), key, uint64(i), 0)
	}
	if got := r.Dropped(); got != 200-64 {
		t.Fatalf("Dropped = %d, want %d", got, 200-64)
	}
	recs := r.Records()
	if len(recs) != 64 {
		t.Fatalf("ring holds %d records, want 64", len(recs))
	}
	// The newest 64 survive, in canonical order.
	for i, rec := range recs {
		if want := cycles.Cycles(200 - 64 + i); rec.At != want {
			t.Fatalf("record %d at %d, want %d", i, rec.At, want)
		}
	}

	// Three records share each instant under keys emitted in
	// descending order, so canonical order is not emission order.
	const capacity = 4096
	r = NewRecorder(capacity)
	var all []Rec
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10*capacity; i++ {
		k := Key(KindCounter, LayerCluster, NameServed, uint32(2-i%3))
		r.Emit(cycles.Cycles(i/3), k, uint64(i), 0)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(capacity*32*17/16); got > limit {
		t.Fatalf("emitting %d records into a %d-record ring allocated %d bytes, want <= %d",
			10*capacity, capacity, got, limit)
	}
	for i := 0; i < 10*capacity; i++ {
		k := Key(KindCounter, LayerCluster, NameServed, uint32(2-i%3))
		all = append(all, Rec{At: cycles.Cycles(i / 3), Key: k, A: uint64(i)})
	}
	want := all[len(all)-capacity:]
	slices.SortFunc(want, cmp)
	if got := r.Records(); !slices.Equal(got, want) {
		t.Fatalf("ring kept %d records, not the newest %d in canonical order", len(got), capacity)
	}
	if got := r.Dropped(); got != 9*capacity {
		t.Fatalf("Dropped = %d, want %d", got, 9*capacity)
	}
}

// TestRingJoinsFirstBatch: records a full single-engine ring holds
// when the first barrier batch opens join that batch, and unbatched
// records emitted after a sealed batch evict from it before the ring
// drops anything of its own.
func TestRingJoinsFirstBatch(t *testing.T) {
	r := NewRecorder(8)
	key := Key(KindInstant, LayerCluster, NameScale, 0)
	for i := 0; i < 13; i++ {
		r.Emit(cycles.Cycles(i), key, 0, 0)
	}
	r.BeginBatch()
	r.Emit(13, key, 0, 0)
	open := slices.Clone(r.OpenBatch())
	slices.SortFunc(open, cmp)
	if len(open) != 9 {
		t.Fatalf("open batch holds %d records, want 9", len(open))
	}
	for i, rec := range open {
		if want := cycles.Cycles(5 + i); rec.At != want {
			t.Fatalf("open batch record %d at %d, want %d", i, rec.At, want)
		}
	}
	r.EndBatch()
	if r.Len() != 8 || r.Dropped() != 6 {
		t.Fatalf("after the batch: %d held, %d dropped; want 8 and 6", r.Len(), r.Dropped())
	}
	for i := 14; i < 20; i++ {
		r.Emit(cycles.Cycles(i), key, 0, 0)
	}
	recs := r.Records()
	if len(recs) != 8 || recs[0].At != 12 || recs[7].At != 19 {
		t.Fatalf("kept %v, want the records at 12..19", recs)
	}
}

// TestRecorderEmitAllocFree pins the hot path: once constructed, the
// ring and a warmed buffer emit with zero allocations.
func TestRecorderEmitAllocFree(t *testing.T) {
	r := NewRecorder(1024)
	key := Key(KindCounter, LayerSim, NameEnq, 7)
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			for i := 0; i < 50; i++ {
				r.Emit(cycles.Cycles(i), key, 1, 0)
			}
		}
	}); n != 0 {
		t.Fatalf("Recorder.Emit allocates %v times in 200 steady-state batches, want 0", n)
	}
	b := &Buffer{}
	for i := 0; i < 100; i++ { // warm the backing array
		b.Emit(cycles.Cycles(i), key, 1, 0)
	}
	b.Reset()
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			for i := 0; i < 50; i++ {
				b.Emit(cycles.Cycles(i), key, 1, 0)
			}
			b.Reset()
		}
	}); n != 0 {
		t.Fatalf("Buffer.Emit allocates %v times in 200 steady-state batches, want 0", n)
	}
}

// TestRecordsCanonicalOrder: export order is (At, Key, A, B) no matter
// the emission order — the merge rule that makes traces layout-
// invariant.
func TestRecordsCanonicalOrder(t *testing.T) {
	a := NewRecorder(16)
	b := NewRecorder(16)
	k1 := Key(KindCounter, LayerCluster, NameServed, 1)
	k2 := Key(KindCounter, LayerCluster, NameServed, 2)
	a.Emit(5, k2, 0, 0)
	a.Emit(5, k1, 0, 0)
	a.Emit(3, k2, 0, 0)
	b.Emit(3, k2, 0, 0)
	b.Emit(5, k1, 0, 0)
	b.Emit(5, k2, 0, 0)
	var ta, tb bytes.Buffer
	if err := a.WriteTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatalf("emission order leaked into trace output:\n%s\nvs\n%s", ta.String(), tb.String())
	}
}

func TestWriteTraceIsValidJSON(t *testing.T) {
	r := NewRecorder(64)
	r.Label(LayerIngress, 0, `route "a->b"`) // quotes must escape
	r.Emit(10, Key(KindSpanBegin, LayerIngress, NameAttempt, 0), 0xabc, 0)
	r.Emit(20, Key(KindSpanEnd, LayerIngress, NameAttempt, 0), 0xabc, 1)
	r.Emit(15, Key(KindInstant, LayerIngress, NameTimeout, 0), 0, 0)
	r.Emit(16, Key(KindCounter, LayerSim, NameEnq, 3), 9, 0)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 4 process rows + 1 thread row + 4 records.
	if len(events) != 9 {
		t.Fatalf("trace has %d events, want 9:\n%s", len(events), buf.String())
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
	}
	if phases["b"] != 1 || phases["e"] != 1 || phases["i"] != 1 || phases["C"] != 1 || phases["M"] != 5 {
		t.Fatalf("phase mix %v", phases)
	}
}

// TestSamplerWindows: records land in their windows, order-free; the
// materialized series pads to the horizon and derives the in-flight
// gauge from cumulative admissions minus completions.
func TestSamplerWindows(t *testing.T) {
	w := cycles.FromMicros(100)
	horizon := cycles.FromMicros(500)
	s := NewSampler(w, horizon)

	arrive := Key(KindCounter, LayerCluster, NameArrive, 0)
	served := Key(KindCounter, LayerCluster, NameServed, 0)
	timeout := Key(KindInstant, LayerIngress, NameTimeout, 0)

	// Window 0: two arrivals, one served (latency 50 µs, cost 30 µs of work).
	s.Feed(0, arrive, 0, 0)
	s.Feed(w/2, arrive, 0, 0)
	s.Feed(w-1, served, uint64(cycles.FromMicros(50)), uint64(cycles.FromMicros(30)))
	// Window 2: the second request times out, retries, then completes.
	s.Feed(2*w+5, timeout, 0, 0)
	s.Feed(2*w+9, Key(KindInstant, LayerIngress, NameRetry, 0), 0, 0)
	s.Feed(3*w-1, served, uint64(cycles.FromMicros(250)), 0)
	// A record at exactly the horizon folds into the final window.
	s.Feed(horizon, arrive, 0, 0)

	ts := s.Finish(nil)
	if len(ts.Windows) != 5 {
		t.Fatalf("got %d windows, want 5", len(ts.Windows))
	}
	w0, w2, w4 := ts.Windows[0], ts.Windows[2], ts.Windows[4]
	if w0.Arrived != 2 || w0.Served != 1 || w0.InFlight != 1 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.P99US != 50 {
		t.Fatalf("window 0 p99 = %v, want 50", w0.P99US)
	}
	if w0.BusyCores != 0.3 {
		t.Fatalf("window 0 busy-cores = %v, want 0.3", w0.BusyCores)
	}
	if w2.Timeouts != 1 || w2.Retries != 1 || w2.Served != 1 || w2.InFlight != 0 {
		t.Fatalf("window 2 = %+v", w2)
	}
	if w2.P50US != 250 {
		t.Fatalf("window 2 p50 = %v, want 250", w2.P50US)
	}
	if ts.Windows[1].Arrived != 0 || ts.Windows[3].InFlight != 0 {
		t.Fatalf("empty windows wrong: %+v", ts.Windows)
	}
	if w4.Arrived != 1 || w4.InFlight != 1 {
		t.Fatalf("horizon fold wrong: %+v", w4)
	}
}

// TestSamplerOrderIndependence: two feeds of the same multiset in
// different orders materialize byte-identical series.
func TestSamplerOrderIndependence(t *testing.T) {
	w := cycles.FromMicros(100)
	recs := []Rec{
		{At: w / 10, Key: Key(KindCounter, LayerCluster, NameServed, 1), A: 500, B: 100},
		{At: w / 10, Key: Key(KindCounter, LayerCluster, NameServed, 2), A: 900, B: 100},
		{At: w / 2, Key: Key(KindCounter, LayerCluster, NameArrive, 1)},
		{At: w + w/5, Key: Key(KindCounter, LayerIngress, NameBudget, 0), A: 1500},
		{At: w + w/3, Key: Key(KindCounter, LayerIngress, NameBudget, 0), A: 700},
	}
	run := func(order []int) string {
		s := NewSampler(w, 3*w)
		for _, i := range order {
			r := recs[i]
			s.Feed(r.At, r.Key, r.A, r.B)
		}
		blob, err := json.Marshal(s.Finish(nil))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	a := run([]int{0, 1, 2, 3, 4})
	b := run([]int{4, 2, 3, 1, 0})
	if a != b {
		t.Fatalf("feed order leaked into the series:\n%s\nvs\n%s", a, b)
	}
	var ts TimeSeries
	if err := json.Unmarshal([]byte(a), &ts); err != nil {
		t.Fatal(err)
	}
	if ts.Windows[1].RetryBudget == nil || *ts.Windows[1].RetryBudget != 0.7 {
		t.Fatalf("budget min gauge wrong: %+v", ts.Windows[1])
	}
	if ts.Windows[0].RetryBudget != nil {
		t.Fatal("budget gauge leaked into an unsampled window")
	}
}

// TestSamplerSealPooling: sealing recycles histograms, so a long run
// holds O(active windows) histograms, not O(total windows).
func TestSamplerSealPooling(t *testing.T) {
	w := cycles.FromMicros(10)
	s := NewSampler(w, 0)
	s.AutoSeal = true
	served := Key(KindCounter, LayerCluster, NameServed, 0)
	for i := 0; i < 1000; i++ {
		s.Feed(cycles.Cycles(i)*w+1, served, uint64(i), 0)
	}
	made := len(s.free)
	for i := range s.rows {
		if s.rows[i].h != nil {
			made++
		}
	}
	if made > 3 {
		t.Fatalf("sampler holds %d histograms for a monotone feed, want ≤ 3", made)
	}
	ts := s.Finish(nil)
	if len(ts.Windows) != 1000 {
		t.Fatalf("got %d windows", len(ts.Windows))
	}
	// Each window's one sample is its p99: a recycled histogram that
	// kept an earlier window's samples would report those.
	for i, w := range ts.Windows {
		if w.Served != 1 || w.P99US != cycles.Cycles(i).Micros() {
			t.Fatalf("sealed window %d = %+v, want one served record at p99 %v µs", i, w, cycles.Cycles(i).Micros())
		}
	}
}

// servedFeed drives served records through an auto-sealing sampler in
// nondecreasing virtual time: feedWindow records a window, so every
// feedWindow-th record crosses into a new window and seals the last
// one, recycling its histogram. Latencies spread over ~2 octaves.
type servedFeed struct {
	s   *Sampler
	key uint64
	i   uint64
}

const (
	feedWindow  = 64   // records per window
	feedWindows = 1024 // windows to the horizon
)

func newServedFeed() *servedFeed {
	s := NewSampler(feedWindow, feedWindow*feedWindows)
	s.AutoSeal = true
	return &servedFeed{s: s, key: Key(KindCounter, LayerCluster, NameServed, 0)}
}

func (f *servedFeed) next() {
	f.s.Feed(cycles.Cycles(f.i), f.key, 1000+f.i*7919%3000, 10)
	f.i++
}

// full reports whether the feed has reached the horizon.
func (f *servedFeed) full() bool { return f.i >= feedWindow*feedWindows }

// TestSamplerFeedAllocFree: once two windows have warmed the pool, the
// served-record path (window cache, histogram, auto-seal, recycle)
// allocates nothing.
func TestSamplerFeedAllocFree(t *testing.T) {
	f := newServedFeed()
	const runs = 16 * feedWindow
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			f.next()
		}
	}); n != 0 {
		t.Fatalf("Sampler.Feed allocates %v times in %d served records, want 0", n, runs)
	}
	if ts := f.s.Finish(nil); ts.Windows[20].Served != feedWindow || ts.Windows[20].P99US == 0 {
		t.Fatalf("window 20 = %+v", ts.Windows[20])
	}
}

// BenchmarkSamplerFeed measures one served record through Feed on a
// warm auto-sealing sampler, seals and histogram recycling included.
func BenchmarkSamplerFeed(b *testing.B) {
	f := newServedFeed()
	for range 2 * feedWindow { // warm the histogram pool
		f.next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if f.full() {
			b.StopTimer()
			f = newServedFeed()
			for range 2 * feedWindow {
				f.next()
			}
			b.StartTimer()
		}
		f.next()
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	w := cycles.FromMicros(100)
	s := NewSampler(w, cycles.FromMicros(200))
	s.Feed(0, Key(KindCounter, LayerCluster, NameArrive, 0), 0, 0)
	s.Feed(5, Key(KindCounter, LayerCluster, NameServed, 0), uint64(cycles.FromMicros(40)), 0)
	s.AddMark(150, "scale", "add-node")
	ts := s.Finish(nil)
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "start_us,arrived,served") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,1,1,") {
		t.Fatalf("CSV row wrong: %s", lines[1])
	}
	if len(ts.Marks) != 1 || ts.Marks[0].Detail != "add-node" {
		t.Fatalf("marks wrong: %+v", ts.Marks)
	}
}
