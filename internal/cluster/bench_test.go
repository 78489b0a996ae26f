package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xcontainers/internal/apps"
	"xcontainers/internal/core"
	"xcontainers/internal/runtimes"
)

// BenchmarkClusterFleet measures one fleet scenario end to end — build
// plus run — on the single engine (Shards = 0, the pre-refactor
// execution model) and on the sharded engine at 8 shards. The ISSUE's
// acceptance bar is the sharded/single ratio on multi-core hardware;
// CI runs it with -benchtime=1x as a smoke test.
func BenchmarkClusterFleet(b *testing.B) {
	app, err := apps.ByName("memcached")
	if err != nil {
		b.Fatal(err)
	}
	base := func() Config {
		return Config{
			Platform: core.PlatformConfig{
				Kind: runtimes.XContainer, MeltdownPatched: true,
				Cloud: runtimes.LocalCluster, FastToolstack: true,
			},
			App:       app,
			Nodes:     200,
			MaxNodes:  200,
			NodeCores: 4,
			Replicas:  200,
			Policy:    Spread,
		}
	}
	tr := Traffic{Concurrency: 2000, DurationSec: 0.02, Seed: 1}

	run := func(b *testing.B, shards int) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := base()
			cfg.Shards = shards
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed == 0 {
				b.Fatal("benchmark fleet completed nothing")
			}
		}
	}
	b.Run("single", func(b *testing.B) { run(b, 0) })
	b.Run("shards8", func(b *testing.B) { run(b, 8) })
}

// BenchmarkTraceOverhead measures what observability costs on the
// BenchmarkClusterFleet scenario: "off" is the compiled-in-but-disabled
// baseline (Observe nil — every instrumentation site is one branch; the
// ISSUE bounds the delta against a build without the hooks at < 1%),
// "traced" arms the ring and sampler (bounded < 10% slower than off).
func BenchmarkTraceOverhead(b *testing.B) {
	app, err := apps.ByName("memcached")
	if err != nil {
		b.Fatal(err)
	}
	tr := Traffic{Concurrency: 2000, DurationSec: 0.02, Seed: 1}

	run := func(b *testing.B, obsCfg *ObserveConfig) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := Config{
				Platform: core.PlatformConfig{
					Kind: runtimes.XContainer, MeltdownPatched: true,
					Cloud: runtimes.LocalCluster, FastToolstack: true,
				},
				App:       app,
				Nodes:     200,
				MaxNodes:  200,
				NodeCores: 4,
				Replicas:  200,
				Policy:    Spread,
				Shards:    8,
				Observe:   obsCfg,
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed == 0 {
				b.Fatal("benchmark fleet completed nothing")
			}
			if obsCfg != nil && res.Trace.Emitted() == 0 {
				b.Fatal("traced run emitted nothing")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("traced", func(b *testing.B) { run(b, &ObserveConfig{WindowUS: 1000}) })
}

// BenchmarkShardEpoch sizes poolMinEvents: it steps an open-loop fleet
// (8 shards, 2 workers, 32 replicas at 2M req/s, two events per
// request) through epochs of about 16 to 16,384 events, each size run
// inline and pooled. ns/op is the cost of one
// epoch, barrier included; the crossover is the smallest size at which
// the pooled run is the faster one.
//
// The closed-loop cases size the same threshold for the re-issue
// barrier's two streams: a saturated closed loop (8 shards, 2 workers,
// two completions per replica and epoch) re-issues 256 to 16,384
// records per barrier, and ns/op is one processDone — table refresh,
// picks and merge — replayed over the same completions, inline and
// split.
func BenchmarkShardEpoch(b *testing.B) {
	app, err := apps.ByName("memcached")
	if err != nil {
		b.Fatal(err)
	}
	const rate = 2_000_000
	for _, events := range []int{16, 256, 1024, 2048, 4096, 8192, 16384} {
		for _, pooled := range []bool{false, true} {
			mode := "inline"
			if pooled {
				mode = "pooled"
			}
			b.Run(fmt.Sprintf("events=%d/%s", events, mode), func(b *testing.B) {
				c, err := New(Config{
					Platform: core.PlatformConfig{
						Kind: runtimes.XContainer, MeltdownPatched: true,
						Cloud: runtimes.LocalCluster, FastToolstack: true,
					},
					App:          app,
					Nodes:        8,
					MaxNodes:     8,
					NodeCores:    4,
					Replicas:     32,
					Shards:       8,
					ShardWorkers: 2,
					EpochUS:      float64(events) / 2 / rate * 1e6,
				})
				if err != nil {
					b.Fatal(err)
				}
				c.sh.poolMin = math.MaxUint64
				if pooled {
					c.sh.poolMin = 0
				}
				openRun(b, c, Traffic{Rate: rate, Seed: 1})
				for c.EventsFired() < 20_000 { // warm-up: fill the queues and grow the rings
					c.sh.step()
				}
				fired := c.EventsFired()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.sh.step()
				}
				b.StopTimer()
				b.ReportMetric(float64(c.EventsFired()-fired)/float64(b.N), "events/epoch")
				if pooled != (c.sh.pooled > 0) {
					b.Fatalf("pooled=%v but the pool ran %d epochs", pooled, c.sh.pooled)
				}
			})
		}
	}
	for _, records := range []int{256, 1024, 2048, 4096, 16384} {
		for _, split := range []bool{false, true} {
			mode := "inline"
			if split {
				mode = "split"
			}
			b.Run(fmt.Sprintf("closed-loop/records=%d/%s", records, mode), func(b *testing.B) {
				benchReissue(b, app, records, split)
			})
		}
	}
}

// benchReissue times one closed-loop re-issue barrier of about records
// re-issues. Its fleet has records/2 replicas, 32 connections each, and
// the default epoch of two service times, so every replica completes
// two jobs an epoch, as in planet-fleet. It steps the loop to a steady
// state, keeps the last epoch's sorted completions and touched lists,
// and replays them into processDone on every iteration, discarding the
// staged admissions, so that every iteration routes the same records
// against the same queues.
func benchReissue(b *testing.B, app *apps.App, records int, split bool) {
	replicas := records / 2
	c, err := New(Config{
		Platform: core.PlatformConfig{
			Kind: runtimes.XContainer, MeltdownPatched: true,
			Cloud: runtimes.LocalCluster, FastToolstack: true,
		},
		App:          app,
		Nodes:        replicas / 4,
		MaxNodes:     replicas / 4,
		NodeCores:    4,
		Replicas:     replicas,
		Shards:       8,
		ShardWorkers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.sh.poolMin = math.MaxUint64
	if split {
		c.sh.poolMin = 0
	}
	openRun(b, c, Traffic{Concurrency: 32 * replicas, Seed: 1})
	for i := 0; i < 64; i++ {
		c.sh.step()
	}
	s := c.sh
	runs := make([][]doneRec, len(s.shards))
	touched := make([][]int32, len(s.shards))
	for i := range s.shards {
		runs[i] = s.shards[i].done
		touched[i] = slices.Clone(s.shards[i].touched)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range s.shards {
			ss := &s.shards[k]
			ss.done = runs[k]
			ss.touched = append(ss.touched[:0], touched[k]...)
			ss.pend = ss.pend[:0]
		}
		s.processDone()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(s.ids)), "records/barrier")
	if split != (s.splits > 0) {
		b.Fatalf("split=%v but %d barriers ran their streams on the pool", split, s.splits)
	}
}

// BenchmarkClusterNew measures building a planet-scale fleet, 10k
// nodes × 10k replicas on the sharded engine, under each index-backed
// placement policy: ns/op is one New, archetype boot included, and
// placement is the part that grows with nodes × replicas.
func BenchmarkClusterNew(b *testing.B) {
	app, err := apps.ByName("memcached")
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []Policy{BinPack, Spread} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := Config{
				Platform: core.PlatformConfig{
					Kind: runtimes.XContainer, MeltdownPatched: true,
					Cloud: runtimes.LocalCluster, FastToolstack: true,
				},
				App:       app,
				Nodes:     10_000,
				MaxNodes:  10_000,
				NodeCores: 4,
				Replicas:  10_000,
				Policy:    pol,
				Shards:    8,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
