package storage

import (
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// BenchmarkLocdbDelta measures the workstation delta hot path — the
// operation every cell performs for every moving device every cycle —
// against the two storage backends: the in-memory-only store and the
// durable store (history + group-committed WAL).
//
// ns/op here is the saturation throughput cost: the loop issues real
// moves as fast as the store absorbs them, so on a single-core host it
// charges the asynchronous group-commit work (record encode, the one
// write syscall per commit, GC of the record buffers) to the same core
// that issues the deltas. That is the worst case for the durable
// backend — any deployment with a second core runs the flusher beside
// the hot path and pays only the in-lock buffer append (~10 ns).
// docs/OPERATIONS.md §4.2 has the recipe.
func BenchmarkLocdbDelta(b *testing.B) {
	const devices = 1024
	const rooms = 32

	run := func(b *testing.B, s locdb.Store) {
		// Pre-populate so every delta is a real move over warm state.
		for i := 0; i < devices; i++ {
			present(s, baseband.BDAddr(0xB000_0000_0001+uint64(i)), graph.NodeID(i%rooms), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i*2654435761)%devices)
			// Advance the room on every revisit so the delta is a real
			// move (map + history mutation), never the unchanged no-op.
			room := graph.NodeID((i + i/devices) % rooms)
			present(s, dev, room, sim.Tick(i+1))
		}
		b.StopTimer()
	}

	b.Run("mem", func(b *testing.B) {
		db, err := locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
		if err != nil {
			b.Fatal(err)
		}
		run(b, db)
	})

	b.Run("durable", func(b *testing.B) {
		d, err := Open(Options{
			Dir:              b.TempDir(),
			Shards:           locdb.DefaultShards,
			HistoryLimit:     locdb.DefaultHistoryLimit,
			SnapshotInterval: -1, // measure the WAL path, not checkpoint stalls
		})
		if err != nil {
			b.Fatal(err)
		}
		run(b, d)
		d.crash() // skip the final checkpoint; the tempdir is discarded
	})

	// journal isolates the foreground cost durability adds to the delta
	// hot path — the Record hook that runs inside the shard lock (one
	// closed-flag load plus one record append). The group commits happen
	// outside the timer, so this is exactly the latency a delta caller
	// blocks on beyond the mem path; the acceptance claim is
	// journal ns/op <= 20% of mem ns/op.
	b.Run("journal", func(b *testing.B) {
		d, err := Open(Options{
			Dir:              b.TempDir(),
			Shards:           locdb.DefaultShards,
			HistoryLimit:     locdb.DefaultHistoryLimit,
			SnapshotInterval: -1,
			FlushInterval:    time.Hour, // commits only at the manual drain points
		})
		if err != nil {
			b.Fatal(err)
		}
		const drainEvery = 1 << 16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i*2654435761)%devices)
			d.Record(i&(locdb.DefaultShards-1), locdb.JournalPresence,
				dev, graph.NodeID((i+i/devices)%rooms), sim.Tick(i+1))
			if i&(drainEvery-1) == drainEvery-1 {
				b.StopTimer()
				if err := d.flush(false); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
		b.StopTimer()
		d.crash()
	})
}

// BenchmarkLocdbHistoryQueries measures the read side of the history
// surface on a populated store.
func BenchmarkLocdbHistoryQueries(b *testing.B) {
	db := locdb.New()
	const devices = 256
	for i := 0; i < devices; i++ {
		dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i))
		for m := 0; m < locdb.DefaultHistoryLimit; m++ {
			present(db, dev, graph.NodeID(m%32), sim.Tick(10*m))
		}
	}
	b.Run("locateAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i%devices))
			if _, err := db.LocateAt(dev, sim.Tick(i%1280)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trajectory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i%devices))
			from := sim.Tick(i % 640)
			if got := db.Trajectory(dev, from, from+320); len(got) == 0 {
				b.Fatal("empty trajectory")
			}
		}
	})
}

// BenchmarkRecordEncode isolates the marginal CPU cost one delta adds
// on the hot path: encoding a 29-byte CRC-protected record into the
// stripe's group-commit buffer.
func BenchmarkRecordEncode(b *testing.B) {
	buf := make([]byte, 0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buf) >= 1<<20-recSize {
			buf = buf[:0]
		}
		buf = record{op: opPresence, dev: baseband.BDAddr(i), room: graph.NodeID(i % 32), at: sim.Tick(i)}.encode(buf)
	}
}
