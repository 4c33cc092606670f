package locdb

import (
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// The BenchmarkLocdb pair measures the campus-scale serving mix — mostly
// Locate queries with a steady trickle of presence deltas, from many
// goroutines at once — against a single-mutex database and a sharded one.
// Run with:
//
//	go test -bench BenchmarkLocdb -cpu 4,8 ./internal/locdb
//
// On >= 4 cores the sharded variant should win clearly: the single mutex
// serializes every delta against every query, while shards only collide
// when two operations hash to the same shard.

func benchmarkLocdb(b *testing.B, shards int) {
	db, err := NewSharded(shards, DefaultHistoryLimit)
	if err != nil {
		b.Fatal(err)
	}
	const devices = 1024
	const rooms = 32
	for i := 0; i < devices; i++ {
		present(db, baseband.BDAddr(0xB000_0000_0001+uint64(i)), graph.NodeID(i%rooms), 0)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i*2654435761)%devices)
			if i%2 == 0 {
				// A workstation delta: move the device to another room.
				// Deltas are half the campus-scale mix — every room's
				// workstation reports every cycle — and each one takes
				// the write lock, so this is where the single mutex
				// serializes the whole building. The room formula
				// advances on every revisit of a device so the delta is
				// a real move (map + history mutation), not the
				// unchanged-piconet no-op.
				room := graph.NodeID((i + i/devices) % rooms)
				present(db, dev, room, sim.Tick(i))
			} else {
				db.Locate(dev)
			}
		}
	})
}

func BenchmarkLocdbSingleMutex(b *testing.B) { benchmarkLocdb(b, 1) }
func BenchmarkLocdbSharded(b *testing.B)     { benchmarkLocdb(b, 16) }

// BenchmarkLocdbSnapshotAll measures the full-database read used by
// administrative snapshot queries. On a quiescent database this is the
// cached merged snapshot: a version-vector check and a shared slice,
// zero allocation — not an O(devices) rebuild per call.
func BenchmarkLocdbSnapshotAll(b *testing.B) {
	db := New()
	for i := 0; i < 1024; i++ {
		present(db, baseband.BDAddr(0xB000_0000_0001+uint64(i)), graph.NodeID(i%32), 0)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if got := db.All(); len(got) != 1024 {
				b.Fatalf("All returned %d fixes", len(got))
			}
		}
	})
}

// BenchmarkLocdbSnapshotAllChurn measures All under write churn: every
// iteration moves one device and re-reads, so each call pays the full
// re-merge. This is the bound the cache does NOT help with, kept honest
// next to the quiescent number above.
func BenchmarkLocdbSnapshotAllChurn(b *testing.B) {
	db := New()
	for i := 0; i < 1024; i++ {
		present(db, baseband.BDAddr(0xB000_0000_0001+uint64(i)), graph.NodeID(i%32), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		present(db, baseband.BDAddr(0xB000_0000_0001+uint64(i%1024)), graph.NodeID((i+i/1024)%32), sim.Tick(i+1))
		if got := db.All(); len(got) != 1024 {
			b.Fatalf("All returned %d fixes", len(got))
		}
	}
}
