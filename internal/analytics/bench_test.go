package analytics

// Benchmarks over a generated million-device-day history: 2,000 devices
// observed for 500 days, two room changes per device-day, with room
// locality (each device walks a small home zone of a 200-room
// building). Built once per test binary and shared.
//
// BenchmarkContactTrace reports the latency distribution of full-window
// contact traces (custom metrics p50-ms/p99-ms — the ISSUE gate is
// p99 < 1s on one core). BenchmarkSegmentCompression reports sealed
// bytes per presence run and the compression ratio against the
// uncompressed 29-byte storage WAL record each run would otherwise
// cost (a run is one presence delta).

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

const (
	benchDevices   = 2000
	benchDays      = 500
	benchMovesPday = 2
	benchRooms     = 200
	benchZone      = 5 // rooms per device's home zone
	benchDayTicks  = 86_400
	// Every presence delta costs one 29-byte record in the PR 4 WAL
	// (internal/storage writeRecord: 1 op + 8 seq + 8 addr + 4 room +
	// 8 tick). That is the uncompressed baseline sealed segments are
	// measured against.
	walRecordBytes = 29.0
)

var (
	benchOnce sync.Once
	benchEng  *Engine
)

// benchEngine ingests the synthetic history once: ~2M presence runs
// (1M device-days x 2 moves/day), sealed periodically so nearly all of
// it sits in compressed segments.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	benchOnce.Do(func() {
		e, err := Open(Options{HistoryLimit: 64, SealInterval: -1, SealMinRuns: 1})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(1))
		// Per-device home zone start and walk state.
		zone := make([]int, benchDevices+1)
		for d := 1; d <= benchDevices; d++ {
			zone[d] = rng.Intn(benchRooms)
		}
		for day := 0; day < benchDays; day++ {
			base := sim.Tick(day * benchDayTicks)
			for d := 1; d <= benchDevices; d++ {
				for m := 0; m < benchMovesPday; m++ {
					room := graph.NodeID(1 + (zone[d]+rng.Intn(benchZone))%benchRooms)
					at := base + sim.Tick(m*benchDayTicks/benchMovesPday+rng.Intn(1000))
					apply(e, locdb.Event{
						Fix:     locdb.Fix{Device: baseband.BDAddr(d), Piconet: room, At: at},
						Present: true,
					})
				}
			}
			if day%25 == 24 {
				if err := e.Seal(); err != nil {
					panic(err)
				}
			}
		}
		if err := e.Seal(); err != nil {
			panic(err)
		}
		benchEng = e
	})
	return benchEng
}

func BenchmarkContactTrace(b *testing.B) {
	e := benchEngine(b)
	to := sim.Tick(benchDays * benchDayTicks)
	rng := rand.New(rand.NewSource(2))
	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := baseband.BDAddr(1 + rng.Intn(benchDevices))
		start := time.Now()
		got := e.Contacts(dev, 0, to, 0)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
		if len(got) == 0 {
			b.Fatalf("device %d has no contacts over %d device-days", dev, benchDevices*benchDays)
		}
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)/2], "p50-ms")
	b.ReportMetric(lat[len(lat)*99/100], "p99-ms")
	b.ReportMetric(float64(benchDevices*benchDays), "device-days")
}

func BenchmarkOccupancySeries(b *testing.B) {
	e := benchEngine(b)
	to := sim.Tick(benchDays * benchDayTicks)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		room := graph.NodeID(1 + rng.Intn(benchRooms))
		// One bucket per day over the full history.
		if pts := e.Occupancy([]graph.NodeID{room}, 0, to, benchDayTicks); len(pts) != benchDays {
			b.Fatalf("series length %d, want %d", len(pts), benchDays)
		}
	}
}

func BenchmarkDwellRoom(b *testing.B) {
	e := benchEngine(b)
	to := sim.Tick(benchDays * benchDayTicks)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		room := graph.NodeID(1 + rng.Intn(benchRooms))
		if st := e.DwellRoom(room, 0, to); st.Samples == 0 {
			b.Fatalf("room %d has no dwell samples", room)
		}
	}
}

// BenchmarkSegmentCompression measures bytes on disk per sealed
// presence run against the 29-byte uncompressed WAL record baseline.
// The loop re-reads the already-built engine's stats; the metrics are
// what matter.
func BenchmarkSegmentCompression(b *testing.B) {
	e := benchEngine(b)
	var bytesPerRun, ratio float64
	for i := 0; i < b.N; i++ {
		st := e.Stats()
		if st["sealed_runs"] == 0 {
			b.Fatal("nothing sealed")
		}
		bytesPerRun = float64(st["sealed_bytes"]) / float64(st["sealed_runs"])
		ratio = walRecordBytes / bytesPerRun
	}
	b.ReportMetric(bytesPerRun, "bytes/run")
	b.ReportMetric(ratio, "ratio")
	b.ReportMetric(float64(e.Stats()["sealed_runs"]), "sealed-runs")
}
