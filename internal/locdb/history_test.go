package locdb

import (
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// historyMoves walks one device through n distinct rooms at ticks
// 10, 20, 30, ...
func historyMoves(db *DB, dev baseband.BDAddr, n int) {
	for i := 0; i < n; i++ {
		present(db, dev, graph.NodeID(i), sim.Tick(10*(i+1)))
	}
}

// TestHistoryLimitZero: limit 0 disables history — LocateAt and
// Trajectory answer nothing even though Locate works.
func TestHistoryLimitZero(t *testing.T) {
	db := NewWithHistory(0)
	dev := baseband.BDAddr(0xA1)
	historyMoves(db, dev, 5)
	if _, err := db.Locate(dev); err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if got := history(db, dev); len(got) != 0 {
		t.Fatalf("History with limit 0 = %v", got)
	}
	if _, err := db.LocateAt(dev, 50); err == nil {
		t.Fatal("LocateAt answered with history disabled")
	}
	if got := db.Trajectory(dev, 0, 100); got != nil {
		t.Fatalf("Trajectory with limit 0 = %v", got)
	}
}

// TestHistoryLimitOne: limit 1 keeps only the newest run; older point
// queries fail because their runs were evicted.
func TestHistoryLimitOne(t *testing.T) {
	db := NewWithHistory(1)
	dev := baseband.BDAddr(0xA2)
	historyMoves(db, dev, 3) // rooms 0@10, 1@20, 2@30; only 2@30 survives
	h := history(db, dev)
	if len(h) != 1 || h[0].Piconet != 2 || h[0].At != 30 {
		t.Fatalf("History = %v, want [room 2 @ 30]", h)
	}
	if _, err := db.LocateAt(dev, 25); err == nil {
		t.Fatal("LocateAt(25) answered from an evicted run")
	}
	fix, err := db.LocateAt(dev, 30)
	if err != nil || fix.Piconet != 2 {
		t.Fatalf("LocateAt(30) = %v, %v", fix, err)
	}
	if got := db.Trajectory(dev, 0, 100); len(got) != 1 || got[0].Piconet != 2 {
		t.Fatalf("Trajectory = %v", got)
	}
}

// TestHistoryExactBoundaryEviction: filling history to exactly the limit
// evicts nothing; the next move evicts exactly the oldest run.
func TestHistoryExactBoundaryEviction(t *testing.T) {
	const limit = 4
	db := NewWithHistory(limit)
	dev := baseband.BDAddr(0xA3)
	historyMoves(db, dev, limit)
	h := history(db, dev)
	if len(h) != limit || h[0].Piconet != 0 || h[limit-1].Piconet != limit-1 {
		t.Fatalf("at boundary History = %v", h)
	}
	// The limit+1-th move: room 0's run is evicted, the rest shift.
	present(db, dev, graph.NodeID(limit), sim.Tick(10*(limit+1)))
	h = history(db, dev)
	if len(h) != limit || h[0].Piconet != 1 || h[limit-1].Piconet != graph.NodeID(limit) {
		t.Fatalf("past boundary History = %v", h)
	}
	if _, err := db.LocateAt(dev, 10); err == nil {
		t.Fatal("LocateAt(10) answered from the evicted oldest run")
	}
	if fix, err := db.LocateAt(dev, 20); err != nil || fix.Piconet != 1 {
		t.Fatalf("LocateAt(20) = %v, %v", fix, err)
	}
}

// TestHistoryShardParity: a single-shard and a many-shard database fed
// the same sequence answer every history query identically — the
// sharding must be invisible to the spatio-temporal query surface.
func TestHistoryShardParity(t *testing.T) {
	mk := func(shards int) *DB {
		db, err := NewSharded(shards, 3)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	single, sharded := mk(1), mk(16)
	const devices = 40
	const rooms = 7
	for step := 0; step < 600; step++ {
		dev := baseband.BDAddr(0xA000 + uint64(step*13%devices))
		room := graph.NodeID(step * 5 % rooms)
		at := sim.Tick(step)
		switch step % 7 {
		case 6:
			absent(single, dev, room, at)
			absent(sharded, dev, room, at)
		default:
			present(single, dev, room, at)
			present(sharded, dev, room, at)
		}
	}
	for i := 0; i < devices; i++ {
		dev := baseband.BDAddr(0xA000 + uint64(i))
		for _, at := range []sim.Tick{0, 100, 300, 599, 10_000} {
			f1, err1 := single.LocateAt(dev, at)
			f2, err2 := sharded.LocateAt(dev, at)
			if (err1 == nil) != (err2 == nil) || f1 != f2 {
				t.Fatalf("LocateAt(%v, %d): single (%v, %v) vs sharded (%v, %v)",
					dev, at, f1, err1, f2, err2)
			}
		}
		windows := [][2]sim.Tick{{0, 599}, {100, 200}, {550, 10_000}, {200, 100}}
		for _, w := range windows {
			t1 := single.Trajectory(dev, w[0], w[1])
			t2 := sharded.Trajectory(dev, w[0], w[1])
			if len(t1) != len(t2) {
				t.Fatalf("Trajectory(%v, %v): single %v vs sharded %v", dev, w, t1, t2)
			}
			for j := range t1 {
				if t1[j] != t2[j] {
					t.Fatalf("Trajectory(%v, %v)[%d]: %v vs %v", dev, w, j, t1[j], t2[j])
				}
			}
		}
	}
}

// TestMutationChangeReports: the delta semantics are visible in the
// boolean returns — exactly the reports a durable WAL must persist.
func TestMutationChangeReports(t *testing.T) {
	db := New()
	dev := baseband.BDAddr(0xA4)
	if !present(db, dev, 1, 10) {
		t.Fatal("first presence reported unchanged")
	}
	if present(db, dev, 1, 20) {
		t.Fatal("re-reported presence claimed a change")
	}
	if !present(db, dev, 2, 30) {
		t.Fatal("move reported unchanged")
	}
	if absent(db, dev, 1, 40) {
		t.Fatal("stale absence (old room) claimed a change")
	}
	if !absent(db, dev, 2, 40) {
		t.Fatal("real absence reported unchanged")
	}
	if absent(db, dev, 2, 50) {
		t.Fatal("absence of an absent device claimed a change")
	}
	if !db.Drop(dev) {
		t.Fatal("drop of a device with history reported no change")
	}
	if db.Drop(dev) {
		t.Fatal("drop of an unknown device claimed a change")
	}
}

// TestDumpRestoreRoundTrip: Restore(Dump()) into a fresh database
// reproduces every queryable fact, including history of absent devices.
func TestDumpRestoreRoundTrip(t *testing.T) {
	src, err := NewSharded(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		dev := baseband.BDAddr(0xB000 + uint64(i))
		historyMoves(src, dev, 1+i%6)
		if i%5 == 0 {
			// Leave some devices absent-with-history.
			fix, _ := src.Locate(dev)
			absent(src, dev, fix.Piconet, 1000)
		}
	}

	dst, err := NewSharded(3, 4) // different shard count on purpose
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(src.Dump()); err != nil {
		t.Fatal(err)
	}

	if g, w := dst.Present(), src.Present(); g != w {
		t.Fatalf("Present: restored %d, source %d", g, w)
	}
	for i := 0; i < 30; i++ {
		dev := baseband.BDAddr(0xB000 + uint64(i))
		f1, err1 := src.Locate(dev)
		f2, err2 := dst.Locate(dev)
		if (err1 == nil) != (err2 == nil) || f1 != f2 {
			t.Fatalf("Locate(%v): source (%v, %v) vs restored (%v, %v)", dev, f1, err1, f2, err2)
		}
		h1, h2 := history(src, dev), history(dst, dev)
		if len(h1) != len(h2) {
			t.Fatalf("History(%v): source %v vs restored %v", dev, h1, h2)
		}
		for j := range h1 {
			if h1[j] != h2[j] {
				t.Fatalf("History(%v)[%d]: %v vs %v", dev, j, h1[j], h2[j])
			}
		}
	}
	a1, a2 := src.All(), dst.All()
	if len(a1) != len(a2) {
		t.Fatalf("All: source %d, restored %d", len(a1), len(a2))
	}
	for j := range a1 {
		if a1[j] != a2[j] {
			t.Fatalf("All[%d]: %v vs %v", j, a1[j], a2[j])
		}
	}

	// Restoring on top of existing state must fail loudly.
	if err := dst.Restore(src.Dump()); err == nil {
		t.Fatal("double restore silently accepted")
	}
}
