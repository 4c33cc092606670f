// Benchmarks regenerating every table and figure of the paper. One bench
// per artefact (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1DiscoveryTrial  — Table 1 (one inquiry trial per op)
//	BenchmarkTable1Full            — Table 1 (all 500 trials per op)
//	BenchmarkFig2Sweep             — Figure 2 (all populations per op)
//	BenchmarkFig2TenSlaves         — Figure 2 (one 10-slave run per op)
//	BenchmarkPolicyCycle           — Section 5 policy analysis
//	BenchmarkAblationCollision     — collision handling on/off
//	BenchmarkAblationScan          — slave scan parameter sweep
//	BenchmarkAblationDuty          — discovery-slot sweep
//
// Plus microbenchmarks of the substrates on the hot path (the event
// kernel, Dijkstra/all-pairs, the location database, and the wire codec).
package bips

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/experiments"
	"bips/internal/graph"
	"bips/internal/inquiry"
	"bips/internal/locdb"
	"bips/internal/runner"
	"bips/internal/sim"
	"bips/internal/wire"
)

// --- Paper artefacts -------------------------------------------------------

// BenchmarkTable1DiscoveryTrial regenerates one Table 1 inquiry trial per
// iteration: master dedicated to inquiry, slave alternating inquiry scan
// and page scan.
func BenchmarkTable1DiscoveryTrial(b *testing.B) {
	rng := rand.New(rand.NewSource(2003))
	var total sim.Tick
	for i := 0; i < b.N; i++ {
		r := inquiry.RunTrial(rng, inquiry.TrialConfig{})
		total += r.Time
	}
	if b.N > 0 {
		b.ReportMetric(total.Seconds()/float64(b.N), "mean-discovery-s")
	}
}

// BenchmarkTable1Full regenerates the whole 500-trial table per iteration.
func BenchmarkTable1Full(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunTable1(int64(i)+2003, 500)
	}
	b.ReportMetric(last.Same.AvgSecs, "same-train-s")
	b.ReportMetric(last.Different.AvgSecs, "diff-train-s")
	b.ReportMetric(last.Mixed.AvgSecs, "mixed-s")
}

// BenchmarkTable1Workers regenerates the 500-trial Table 1 sweep on the
// experiment runner at increasing worker counts. workers=1 is the serial
// baseline; the engine's contract is near-linear speedup with identical
// output (>= 2x at 4 workers on a machine with >= 4 cores — the trials
// are CPU-bound, so a single-core host shows no gain by construction;
// BenchmarkRunnerWorkersLatencyBound isolates the engine's own scaling
// from the core count).
func BenchmarkTable1Workers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := runner.NewPool(runner.WithWorkers(workers))
			var last experiments.Table1Result
			for i := 0; i < b.N; i++ {
				var err error
				last, err = experiments.RunTable1On(context.Background(), pool, 2003, 500)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Mixed.AvgSecs, "mixed-s")
		})
	}
}

// BenchmarkRunnerWorkersLatencyBound measures the pool's trial overlap
// with a fixed 1 ms blocking trial, the shape of future sharded/remote
// execution. Unlike the CPU-bound Table 1 sweep this scales with the
// worker count even on a single core: 4 workers complete the sweep ~4x
// faster than serial, proving the dispatcher/sequencer adds no
// serialisation of its own.
func BenchmarkRunnerWorkersLatencyBound(b *testing.B) {
	const trials = 64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := runner.NewPool(runner.WithWorkers(workers))
			for i := 0; i < b.N; i++ {
				err := runner.Run(context.Background(), pool, 1, trials,
					func(t int, rng *rand.Rand) (int64, error) {
						time.Sleep(time.Millisecond)
						return rng.Int63(), nil
					},
					func(t int, v int64) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2TenSlaves regenerates one 10-slave Figure 2 run per
// iteration (1 s inquiry / 5 s cycle, train A only, collisions on).
func BenchmarkFig2TenSlaves(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var at1s float64
	for i := 0; i < b.N; i++ {
		res, err := inquiry.RunSwarm(rng, inquiry.SwarmConfig{
			Slaves: 10,
			Cycle:  inquiry.DutyCycle{Inquiry: sim.TicksPerSecond, Period: 5 * sim.TicksPerSecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		at1s += res.DiscoveredBy(sim.TicksPerSecond)
	}
	if b.N > 0 {
		b.ReportMetric(at1s/float64(b.N), "P(1s)")
	}
}

// BenchmarkFig2Sweep regenerates the full figure (all seven populations,
// reduced run count) per iteration.
func BenchmarkFig2Sweep(b *testing.B) {
	var p1s float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(int64(i)+42, experiments.Fig2Config{Runs: 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Curves {
			if c.Slaves == 10 {
				p1s = c.At1s
			}
		}
	}
	b.ReportMetric(p1s, "P10(1s)")
}

// BenchmarkPolicyCycle regenerates the Section 5 analysis per iteration.
func BenchmarkPolicyCycle(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPolicy(int64(i)+7, 10)
		if err != nil {
			b.Fatal(err)
		}
		coverage = res.MeasuredCoverage
	}
	b.ReportMetric(coverage, "coverage")
}

// BenchmarkAblationCollision reruns the collision on/off comparison.
func BenchmarkAblationCollision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCollisionAblation(int64(i)+1, []int{10, 20}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScan reruns the scan-parameter sweep.
func BenchmarkAblationScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunScanAblation(int64(i)+1, 60)
	}
}

// BenchmarkAblationDuty reruns the discovery-slot sweep.
func BenchmarkAblationDuty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDutyAblation(int64(i)+1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate microbenchmarks ---------------------------------------------

// BenchmarkKernelSchedule measures the event kernel's schedule+run cost.
func BenchmarkKernelSchedule(b *testing.B) {
	k := sim.NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(1, func(*sim.Kernel) {})
		k.Step()
	}
}

// BenchmarkDijkstra measures one Dijkstra run over a 100-room building.
func BenchmarkDijkstra(b *testing.B) {
	g := graph.New()
	rng := rand.New(rand.NewSource(1))
	const n = 100
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Weight(1+rng.Float64()*9)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Dijkstra(graph.NodeID(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllPairsPrecompute measures the off-line startup computation
// for a large building.
func BenchmarkAllPairsPrecompute(b *testing.B) {
	g := graph.New()
	rng := rand.New(rand.NewSource(1))
	const n = 60
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), graph.Weight(1+rng.Float64()*9)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ComputeAllPairs(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathLookup measures an online navigation query against the
// precomputed table (the paper's "no impact on online activities" claim).
func BenchmarkPathLookup(b *testing.B) {
	bld, err := building.AcademicDepartment()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.ShortestPath(1, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocdbUpdate measures a presence delta against the central
// location database.
func BenchmarkLocdbUpdate(b *testing.B) {
	db := locdb.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev := baseband.BDAddr(0xB000 + uint64(i%512))
		db.ApplyBatch([]locdb.Mutation{{Op: locdb.MutPresence, Dev: dev, Piconet: graph.NodeID(i%10 + 1), At: sim.Tick(i)}})
	}
}

// BenchmarkLocdbLocate measures the spatio-temporal query.
func BenchmarkLocdbLocate(b *testing.B) {
	db := locdb.New()
	muts := make([]locdb.Mutation, 512)
	for i := range muts {
		muts[i] = locdb.Mutation{Op: locdb.MutPresence, Dev: baseband.BDAddr(0xB000 + uint64(i)), Piconet: graph.NodeID(i%10 + 1), At: sim.Tick(i)}
	}
	db.ApplyBatch(muts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Locate(baseband.BDAddr(0xB000 + uint64(i%512))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip measures one request/response over the LAN
// protocol (in-memory pipe).
func BenchmarkWireRoundTrip(b *testing.B) {
	a, peer := net.Pipe()
	go func() {
		codec := wire.NewFrameCodec(peer)
		for {
			env, err := codec.Recv()
			if err != nil {
				return
			}
			if err := codec.Send(wire.Envelope{Type: wire.MsgOK, Seq: env.Seq}); err != nil {
				return
			}
		}
	}()
	client := wire.NewClient(wire.NewFrameCodec(a))
	defer client.Close()
	q := &wire.Locate{Querier: "alice", Target: "bob"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Call(wire.MsgLocate, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSystemSecond measures one second of simulated time of the
// complete 10-cell deployment with five walking users.
func BenchmarkFullSystemSecond(b *testing.B) {
	svc, err := New(WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		user := fmt.Sprintf("u%d", i)
		svc.MustRegister(user, "pw")
		if _, err := svc.AddWalkingUser(user, "pw", "Lobby"); err != nil {
			b.Fatal(err)
		}
	}
	svc.Start()
	defer svc.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Run(time.Second)
	}
}
