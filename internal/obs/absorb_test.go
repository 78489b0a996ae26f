package obs_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
)

// absorbNames is every name a record can carry: the series columns,
// the names the sampler ignores, and one past the well-known ids.
var absorbNames = []uint16{
	obs.NameEnq, obs.NameDeq, obs.NameArrive, obs.NameServed, obs.NameErred,
	obs.NameDropped, obs.NameTimeout, obs.NameRetry, obs.NameHedge,
	obs.NameWasted, obs.NameBudgetDenied, obs.NameBudget, obs.NameScale,
	obs.NameMigration, obs.NameFailure, obs.NameRequest, obs.NameAttempt,
	obs.NameAttempt + 1,
}

// checkAbsorb runs a byte program two ways: the sharded cluster's way,
// records split over per-shard samplers and a central one, with each
// barrier absorbing the shard windows below its watermark into the
// central sampler and then sealing it; and the reference way, every
// record fed to one sampler sealed at the same barriers. The header
// picks:
//
//	data[0]  the shard count S in [1, 8];
//	data[1]  the window, 1-32 cycles;
//	data[2]  the horizon, 4 cycles per unit (0: none).
//
// Then come 4-byte ops. b0&7 == 0 is a barrier b1 cycles after the
// last one. Otherwise the op is a record at b2 cycles after the last
// barrier, fed to target (b0>>3) % (S+1) — S is the central sampler —
// with name absorbNames[b1], latency b3<<(b2%24) and cost b3; b0&4
// feeds it through FeedN with n = b3%4 instead. Up to the barrier at
// the horizon the schedule is a cluster run's: no record precedes the
// last barrier and nothing passes the horizon. Ops after that barrier
// go on past it: barriers seal later instants, and records land past
// the horizon, folding into the last window, which is sealed by then
// exactly when the horizon ends it. Both must materialize the same
// series and the same CSV.
func checkAbsorb(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	shards := 1 + int(data[0])%8
	window := cycles.Cycles(1 + data[1]%32)
	horizon := 4 * cycles.Cycles(data[2])
	ref := obs.NewSampler(window, horizon)
	cen := obs.NewSampler(window, horizon)
	smps := make([]*obs.Sampler, shards)
	for i := range smps {
		smps[i] = obs.NewSampler(window, horizon)
	}
	var now cycles.Cycles
	clamp := func(t cycles.Cycles) cycles.Cycles {
		if horizon > 0 {
			return min(t, horizon)
		}
		return t
	}
	folded := 0
	absorb := func(lim int) {
		for _, s := range smps {
			cen.Absorb(s, folded, lim)
		}
		folded = lim
	}
	for ops := data[3:]; len(ops) >= 4; ops = ops[4:] {
		op := ops[:4]
		if horizon > 0 && now >= horizon {
			clamp = func(t cycles.Cycles) cycles.Cycles { return t }
		}
		if op[0]&7 == 0 {
			now = clamp(now + cycles.Cycles(op[1]))
			absorb(int(now / window))
			cen.Seal(now)
			ref.Seal(now)
			continue
		}
		dst := cen
		if k := int(op[0]>>3) % (shards + 1); k < shards {
			dst = smps[k]
		}
		at := clamp(now + cycles.Cycles(op[2]))
		key := obs.Key(obs.KindCounter, obs.LayerCluster, absorbNames[int(op[1])%len(absorbNames)], uint32(op[2]))
		if op[0]&4 != 0 {
			n := uint64(op[3] % 4)
			dst.FeedN(at, key, n)
			ref.FeedN(at, key, n)
			continue
		}
		lat, cost := uint64(op[3])<<(op[2]%24), uint64(op[3])
		dst.Feed(at, key, lat, cost)
		ref.Feed(at, key, lat, cost)
	}
	absorb(math.MaxInt)
	got, want := cen.Finish(nil), ref.Finish(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("absorbed series\n%+v\nreference\n%+v", got.Windows, want.Windows)
	}
	var gb, wb bytes.Buffer
	if err := got.WriteCSV(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("absorbed CSV\n%s\nreference\n%s", gb.Bytes(), wb.Bytes())
	}
}

// absorbSeeds are boundary cases as byte programs (see checkAbsorb);
// go test runs them as FuzzSamplerAbsorb's seed corpus.
var absorbSeeds = map[string][]byte{
	"no ops": {3, 9, 25},
	"served on every shard, one barrier": {3, 9, 0,
		0x09, 3, 1, 200, 0x11, 3, 12, 90, 0x19, 3, 20, 7, 0x21, 3, 2, 255,
		0x00, 30, 0, 0,
		0x09, 3, 0, 5, 0x19, 3, 0, 6},
	"every name on one shard and central": {0, 4, 10,
		0x01, 0, 1, 1, 0x01, 1, 2, 2, 0x01, 2, 3, 3, 0x01, 3, 4, 4, 0x01, 4, 5, 5,
		0x01, 5, 6, 6, 0x01, 6, 7, 7, 0x01, 7, 8, 8, 0x01, 8, 9, 9, 0x01, 9, 10, 10,
		0x01, 10, 11, 11, 0x01, 11, 12, 12, 0x01, 11, 12, 3, 0x01, 12, 13, 13,
		0x09, 15, 14, 14, 0x09, 16, 15, 15, 0x09, 17, 16, 16, 0x0d, 2, 3, 7,
		0x00, 9, 0, 0, 0x00, 40, 0, 0},
	"records at the horizon, then its barrier": {2, 2, 3,
		0x09, 3, 11, 60, 0x00, 20, 0, 0, 0x09, 3, 1, 61, 0x11, 4, 0, 9, 0x05, 2, 2, 3},
	"records past the horizon after its seal": {1, 3, 3,
		0x01, 3, 1, 50, 0x00, 12, 0, 0, 0x09, 3, 0, 60, 0x11, 4, 2, 0, 0x01, 6, 5, 0,
		0x00, 3, 0, 0, 0x09, 3, 1, 70, 0x05, 2, 0, 3},
	"records past a horizon inside the last window": {1, 4, 3,
		0x01, 3, 1, 50, 0x00, 12, 0, 0, 0x09, 3, 0, 60, 0x11, 4, 2, 0, 0x01, 6, 5, 0,
		0x00, 3, 0, 0, 0x09, 3, 1, 70, 0x05, 2, 0, 3},
	"barriers inside one window": {7, 31, 60,
		0x09, 3, 0, 40, 0x00, 1, 0, 0, 0x11, 3, 0, 41, 0x00, 1, 0, 0,
		0x19, 3, 0, 42, 0x00, 40, 0, 0, 0x21, 3, 0, 43},
}

// FuzzSamplerAbsorb checks windows absorbed from per-shard samplers at
// barriers against one sampler fed every record, over arbitrary record
// splits and barrier schedules.
func FuzzSamplerAbsorb(f *testing.F) {
	for _, data := range absorbSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAbsorb(t, data[:min(len(data), 4096)])
	})
}
