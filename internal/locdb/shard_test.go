package locdb

import (
	"fmt"
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// TestShardIndexStable: a device must always map to the same shard for a
// fixed shard count — the whole design rests on it.
func TestShardIndexStable(t *testing.T) {
	for n := 1; n <= 64; n *= 2 {
		for v := uint64(0); v < 1000; v += 37 {
			a, b := shardIndex(v, n), shardIndex(v, n)
			if a != b {
				t.Fatalf("shardIndex(%d, %d) unstable: %d vs %d", v, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("shardIndex(%d, %d) = %d out of range", v, n, a)
			}
		}
	}
}

// TestShardDistribution: sequentially allocated device addresses (the
// simulator's allocation pattern) must spread over all shards, not cluster
// on a few.
func TestShardDistribution(t *testing.T) {
	const n = 16
	const devices = 16 * 200
	counts := make([]int, n)
	base := uint64(0xB000_0000_0001)
	for i := 0; i < devices; i++ {
		counts[shardIndex(base+uint64(i), n)]++
	}
	mean := devices / n
	for i, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("shard %d holds %d devices, want within [%d, %d] of mean %d",
				i, c, mean/2, mean*2, mean)
		}
	}
}

// TestShardedEquivalence: a sharded database and a single-shard database
// fed the same operation sequence must answer every query identically.
func TestShardedEquivalence(t *testing.T) {
	single, err := NewSharded(1, DefaultHistoryLimit)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(8, DefaultHistoryLimit)
	if err != nil {
		t.Fatal(err)
	}
	dbs := []*DB{single, sharded}

	const devices = 100
	const rooms = 7
	for step := 0; step < 1000; step++ {
		dev := baseband.BDAddr(0xB000_0000_0001 + uint64(step*31%devices))
		room := graph.NodeID(step * 17 % rooms)
		at := sim.Tick(step)
		switch step % 5 {
		case 0, 1, 2:
			for _, db := range dbs {
				present(db, dev, room, at)
			}
		case 3:
			for _, db := range dbs {
				absent(db, dev, room, at)
			}
		case 4:
			if step%20 == 4 {
				for _, db := range dbs {
					db.Drop(dev)
				}
			}
		}
	}

	if g, w := sharded.Present(), single.Present(); g != w {
		t.Fatalf("Present: sharded %d, single %d", g, w)
	}
	for i := 0; i < devices; i++ {
		dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i))
		f1, err1 := single.Locate(dev)
		f2, err2 := sharded.Locate(dev)
		if (err1 == nil) != (err2 == nil) || f1 != f2 {
			t.Fatalf("Locate(%v): single (%v, %v) vs sharded (%v, %v)", dev, f1, err1, f2, err2)
		}
		h1, h2 := history(single, dev), history(sharded, dev)
		if len(h1) != len(h2) {
			t.Fatalf("History(%v): single %d entries, sharded %d", dev, len(h1), len(h2))
		}
		for j := range h1 {
			if h1[j] != h2[j] {
				t.Fatalf("History(%v)[%d]: %v vs %v", dev, j, h1[j], h2[j])
			}
		}
	}
	a1, a2 := single.All(), sharded.All()
	if len(a1) != len(a2) {
		t.Fatalf("All: single %d fixes, sharded %d", len(a1), len(a2))
	}
	for j := range a1 {
		if a1[j] != a2[j] {
			t.Fatalf("All[%d]: %v vs %v", j, a1[j], a2[j])
		}
	}
}

// TestAllSnapshotPath: All must reflect mutations immediately (the cached
// snapshot is invalidated by the version counter) and must return sorted,
// immutable results.
func TestAllSnapshotPath(t *testing.T) {
	db := New()
	if got := db.All(); len(got) != 0 {
		t.Fatalf("All on empty db = %v", got)
	}
	for i := 0; i < 50; i++ {
		present(db, baseband.BDAddr(1000+i), graph.NodeID(i%5), sim.Tick(i))
		all := db.All()
		if len(all) != i+1 {
			t.Fatalf("after %d inserts All has %d fixes", i+1, len(all))
		}
		for j := 1; j < len(all); j++ {
			if all[j-1].Device >= all[j].Device {
				t.Fatalf("All not sorted at %d: %v >= %v", j, all[j-1].Device, all[j].Device)
			}
		}
	}
	// A quiescent database serves the cached snapshot: consecutive
	// calls share one backing array and allocate nothing.
	a, b := db.All(), db.All()
	if &a[0] != &b[0] {
		t.Error("quiescent All() calls returned different backing arrays")
	}
	if allocs := testing.AllocsPerRun(100, func() { db.All() }); allocs != 0 {
		t.Errorf("All() on quiescent db allocates %.1f objects/call, want 0", allocs)
	}
	absent(db, baseband.BDAddr(1000), graph.NodeID(0), 100)
	if got := len(db.All()); got != 49 {
		t.Fatalf("after absence All has %d fixes, want 49", got)
	}
}

// TestNewShardedValidation rejects out-of-range shard counts.
func TestNewShardedValidation(t *testing.T) {
	for _, n := range []int{0, -1, MaxShards + 1} {
		if _, err := NewSharded(n, 10); err == nil {
			t.Errorf("NewSharded(%d) accepted", n)
		}
	}
	db, err := NewSharded(3, 10)
	if err != nil || db.NumShards() != 3 {
		t.Fatalf("NewSharded(3) = %v, %v", db, err)
	}
}

// TestShardedConcurrentHammer drives writers and readers across shards
// under the race detector and checks final-state invariants.
func TestShardedConcurrentHammer(t *testing.T) {
	db, err := NewSharded(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dev := baseband.BDAddr(0xC000_0000_0000 + uint64(w)<<16 + uint64(i%50))
				room := graph.NodeID(i % 9)
				present(db, dev, room, sim.Tick(i))
				if i%3 == 0 {
					db.Locate(dev)
				}
				if i%7 == 0 {
					db.All()
				}
				if i%11 == 0 {
					history(db, dev)
				}
			}
		}()
	}
	wg.Wait()
	// Every worker's 50 distinct devices must have exactly one fix.
	if got, want := db.Present(), workers*50; got != want {
		t.Fatalf("Present = %d, want %d", got, want)
	}
	if got, want := len(db.All()), workers*50; got != want {
		t.Fatalf("len(All) = %d, want %d", got, want)
	}
	st := db.Stats()
	if st.Updates == 0 || st.Queries == 0 {
		t.Fatalf("stats counters not advancing: %+v", st)
	}
	if st.Shards != 8 || st.Present != workers*50 {
		t.Fatalf("stats snapshot wrong: %+v", st)
	}
}

func ExampleNewSharded() {
	db, _ := NewSharded(4, DefaultHistoryLimit)
	present(db, 0xB00000000001, 7, 100)
	fix, _ := db.Locate(0xB00000000001)
	fmt.Printf("shards=%d room=%d\n", db.NumShards(), fix.Piconet)
	// Output: shards=4 room=7
}
