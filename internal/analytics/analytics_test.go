package analytics

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// memEngine returns an engine with no background sealer and no
// directory, wired to a fresh single-threaded locdb.
func memEngine(t *testing.T, limit int) (*Engine, *locdb.DB) {
	t.Helper()
	db, err := locdb.NewSharded(4, limit)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(Options{HistoryLimit: limit, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	db.SubscribeSink(e)
	e.Seed(db.Dump())
	return e, db
}

// present and absent apply one delta as a one-mutation frame through
// ApplyBatch, the store's only write path.
func present(db locdb.Store, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) {
	db.ApplyBatch([]locdb.Mutation{{Op: locdb.MutPresence, Dev: dev, Piconet: room, At: at}})
}

func absent(db locdb.Store, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) {
	db.ApplyBatch([]locdb.Mutation{{Op: locdb.MutAbsence, Dev: dev, Piconet: room, At: at}})
}

// apply feeds the engine one event as a one-event frame.
func apply(e *Engine, ev locdb.Event) { e.OnEvents([]locdb.Event{ev}) }

func TestContactsBasic(t *testing.T) {
	e, db := memEngine(t, 32)
	// dev1 in room 3 over [100, 300), dev2 overlaps [150, 300) there,
	// dev3 is in room 4 the whole time.
	present(db, 1, 3, 100)
	present(db, 2, 3, 150)
	present(db, 3, 4, 100)
	present(db, 1, 5, 300)
	present(db, 2, 5, 320)

	got := e.Contacts(1, 0, 400, 0)
	if len(got) != 1 {
		t.Fatalf("contacts = %+v, want exactly dev2", got)
	}
	c := got[0]
	// Overlap: room 3 over [150,300) = 150, room 5 over [320,400) = 80.
	if c.Device != 2 || c.Overlap != 230 {
		t.Fatalf("contact = %+v, want dev2 overlap 230", c)
	}
	if len(c.Rooms) != 2 || c.Rooms[0] != 3 || c.Rooms[1] != 5 {
		t.Fatalf("contact rooms = %v, want [3 5]", c.Rooms)
	}
	if c.First != 150 || c.Last != 400 {
		t.Fatalf("contact span = [%d, %d], want [150, 400]", c.First, c.Last)
	}
	// minOverlap filters.
	if got := e.Contacts(1, 0, 400, 231); len(got) != 0 {
		t.Fatalf("minOverlap 231 still returned %+v", got)
	}
	if got := e.Contacts(1, 0, 400, 230); len(got) != 1 {
		t.Fatalf("minOverlap 230 dropped the contact: %+v", got)
	}
	// Empty and inverted windows.
	if got := e.Contacts(1, 200, 200, 0); got != nil {
		t.Fatalf("empty window returned %+v", got)
	}
	if got := e.Contacts(1, 300, 100, 0); got != nil {
		t.Fatalf("inverted window returned %+v", got)
	}
}

func TestOccupancySeries(t *testing.T) {
	e, db := memEngine(t, 32)
	present(db, 1, 3, 0)
	present(db, 2, 3, 100)
	present(db, 1, 4, 150) // dev1 leaves room 3 at 150
	pts := e.Occupancy([]graph.NodeID{3}, 0, 200, 50)
	want := []int{1, 1, 2, 1} // [0,50) dev1; [50,100) dev1; [100,150) both; [150,200) dev2
	if len(pts) != len(want) {
		t.Fatalf("buckets = %+v, want %d", pts, len(want))
	}
	for i, w := range want {
		if pts[i].Count != w || pts[i].Start != sim.Tick(i*50) {
			t.Fatalf("bucket %d = %+v, want count %d at %d", i, pts[i], w, i*50)
		}
	}
	// Zone = union of rooms, devices counted once.
	zone := e.Occupancy([]graph.NodeID{3, 4}, 150, 200, 50)
	if len(zone) != 1 || zone[0].Count != 2 {
		t.Fatalf("zone bucket = %+v, want 2 distinct devices", zone)
	}
	// Degenerate shapes.
	if pts := e.Occupancy([]graph.NodeID{3}, 100, 100, 10); pts != nil {
		t.Fatalf("empty window gave %+v", pts)
	}
	if pts := e.Occupancy([]graph.NodeID{3}, 0, 100, 0); pts != nil {
		t.Fatalf("zero bucket gave %+v", pts)
	}
}

func TestDwellSummaries(t *testing.T) {
	e, db := memEngine(t, 32)
	present(db, 1, 3, 0)
	present(db, 1, 4, 100) // dwell 100 in room 3
	present(db, 2, 3, 50)
	present(db, 2, 4, 250) // dwell 200 in room 3
	room := e.DwellRoom(3, 0, 1000)
	if room.Samples != 2 || room.Min != 100 || room.Max != 200 || room.Mean != 150 {
		t.Fatalf("room dwell = %+v, want samples 2, min 100, max 200, mean 150", room)
	}
	dev := e.DwellDevice(1, 0, 1000)
	// Runs: room 3 [0,100), room 4 [100,1000) clipped.
	if dev.Samples != 2 || dev.Min != 100 || dev.Max != 900 {
		t.Fatalf("device dwell = %+v, want samples 2, min 100, max 900", dev)
	}
	if empty := e.DwellRoom(9, 0, 1000); empty.Samples != 0 {
		t.Fatalf("empty room dwell = %+v", empty)
	}
}

func TestOutOfOrderTicksClampLikeHistdb(t *testing.T) {
	e, db := memEngine(t, 32)
	present(db, 1, 3, 100)
	present(db, 1, 4, 50) // out of order: clamps to 100
	present(db, 1, 5, 200)
	// Run structure must be room3 [100,100) zero, room4 [100,200), room5 open.
	d := e.DwellDevice(1, 0, 300)
	if d.Samples != 2 || d.Min != 100 || d.Max != 100 {
		t.Fatalf("dwell after clamp = %+v, want two 100-tick samples", d)
	}
	// The zero-length room-3 run contributes nothing anywhere.
	if got := e.DwellRoom(3, 0, 300); got.Samples != 0 {
		t.Fatalf("zero-length run produced dwell samples: %+v", got)
	}
}

func TestDropErasesHotKeepsSealed(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, HistoryLimit: 32, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db, err := locdb.NewSharded(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	db.SubscribeSink(e)

	present(db, 1, 3, 100)
	present(db, 2, 3, 100)
	present(db, 1, 4, 200)
	present(db, 2, 4, 200)
	if err := e.Seal(); err != nil { // room 3 runs sealed
		t.Fatal(err)
	}
	sealedBefore := e.Contacts(1, 0, 150, 0)
	if len(sealedBefore) != 1 {
		t.Fatalf("pre-drop sealed contacts = %+v", sealedBefore)
	}
	db.Drop(1)
	// Hot co-location in room 4 is gone; sealed room-3 evidence stays.
	if got := e.Contacts(1, 200, 1000, 0); len(got) != 0 {
		t.Fatalf("post-drop hot contacts = %+v, want none", got)
	}
	if got := e.Contacts(1, 0, 150, 0); len(got) != 1 || got[0].Overlap != sealedBefore[0].Overlap {
		t.Fatalf("post-drop sealed contacts = %+v, want %+v", got, sealedBefore)
	}
}

// TestSealedAnswersMatchUnsealed: sealing must be invisible to every
// query family — an engine sealing aggressively under random ingest
// answers byte-identically to one that never seals.
func TestSealedAnswersMatchUnsealed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	sealed, err := Open(Options{Dir: dir, HistoryLimit: 512, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sealed.Close()
	plain, err := Open(Options{HistoryLimit: 512, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	const devices, rooms = 12, 6
	tick := sim.Tick(0)
	for i := 0; i < 2000; i++ {
		tick += sim.Tick(rng.Intn(5))
		ev := locdb.Event{
			Fix: locdb.Fix{
				Device:  baseband.BDAddr(1 + rng.Intn(devices)),
				Piconet: graph.NodeID(1 + rng.Intn(rooms)),
				At:      tick - sim.Tick(rng.Intn(3)), // mild disorder
			},
			Present: true,
		}
		apply(sealed, ev)
		apply(plain, ev)
		if i%257 == 0 {
			if err := sealed.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sealed.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := sealed.Stats()["segments"]; n < 2 {
		t.Fatalf("test is vacuous: only %d segments", n)
	}

	for q := 0; q < 50; q++ {
		from := sim.Tick(rng.Intn(int(tick)))
		to := from + sim.Tick(1+rng.Intn(int(tick)))
		dev := baseband.BDAddr(1 + rng.Intn(devices))
		room := graph.NodeID(1 + rng.Intn(rooms))
		checkJSONEqual(t, "contacts", sealed.Contacts(dev, from, to, 0), plain.Contacts(dev, from, to, 0))
		bucket := 1 + sim.Tick(rng.Intn(50))
		checkJSONEqual(t, "occupancy",
			sealed.Occupancy([]graph.NodeID{room, room + 1}, from, to, bucket),
			plain.Occupancy([]graph.NodeID{room, room + 1}, from, to, bucket))
		checkJSONEqual(t, "dwellRoom", sealed.DwellRoom(room, from, to), plain.DwellRoom(room, from, to))
		checkJSONEqual(t, "dwellDev", sealed.DwellDevice(dev, from, to), plain.DwellDevice(dev, from, to))
	}
}

func checkJSONEqual(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s diverged:\n got %s\nwant %s", what, g, w)
	}
}

// TestCrashRecoveryIdenticalAnswers: abandoning an engine without Close
// (the SIGKILL case — hot state lost, sealed segments on disk) and
// reopening over the same directory with a locdb dump seed must restore
// byte-identical answers for every query family.
func TestCrashRecoveryIdenticalAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	db, err := locdb.NewSharded(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Open(Options{Dir: dir, HistoryLimit: 256, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cancel := db.SubscribeSink(e1)
	tick := sim.Tick(0)
	for i := 0; i < 3000; i++ {
		tick += sim.Tick(rng.Intn(4))
		dev := baseband.BDAddr(1 + rng.Intn(20))
		switch rng.Intn(10) {
		case 8:
			absent(db, dev, graph.NodeID(1+rng.Intn(8)), tick)
		case 9:
			if rng.Intn(4) == 0 {
				db.Drop(dev)
			}
		default:
			present(db, dev, graph.NodeID(1+rng.Intn(8)), tick)
		}
		if i == 1000 || i == 2000 {
			if err := e1.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}

	type answers struct {
		Contacts []Contact
		Occ      []OccupancyPoint
		Dwell    DwellStats
		DwellDev DwellStats
	}
	capture := func(e *Engine) []answers {
		var out []answers
		for d := 1; d <= 20; d++ {
			out = append(out, answers{
				Contacts: e.Contacts(baseband.BDAddr(d), 0, tick+1, 0),
				Occ:      e.Occupancy([]graph.NodeID{graph.NodeID(1 + d%8)}, 0, tick+1, 97),
				Dwell:    e.DwellRoom(graph.NodeID(1+d%8), 0, tick+1),
				DwellDev: e.DwellDevice(baseband.BDAddr(d), 0, tick+1),
			})
		}
		return out
	}
	before := capture(e1)
	cancel()
	// No Close: e1's hot tier dies with it, like a SIGKILL.

	e2, err := Open(Options{Dir: dir, HistoryLimit: 256, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	db.SubscribeSink(e2)
	e2.Seed(db.Dump())
	checkJSONEqual(t, "post-crash answers", capture(e2), before)

	// And the recovered engine keeps working: new traffic lands. Rooms
	// 100/101 are untouched by the random phase, so no open-ended run of
	// an older device reaches into this window.
	present(db, 99, 100, tick+100)
	present(db, 98, 100, tick+150)
	present(db, 99, 101, tick+200)
	if got := e2.Contacts(99, tick+100, tick+300, 0); len(got) != 1 || got[0].Device != 98 {
		t.Fatalf("post-recovery ingest: contacts = %+v", got)
	}
}

func TestCorruptAndStraySegmentFiles(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, HistoryLimit: 32, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	apply(e, locdb.Event{Fix: locdb.Fix{Device: 1, Piconet: 3, At: 10}, Present: true})
	apply(e, locdb.Event{Fix: locdb.Fix{Device: 1, Piconet: 4, At: 20}, Present: true})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// A stale tmp file (crash mid-seal) is ignored.
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000009.seg.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir, HistoryLimit: 32, SealInterval: -1})
	if err != nil {
		t.Fatalf("stale tmp file broke open: %v", err)
	}
	if n := e2.Stats()["segments"]; n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	e2.Close()

	// A corrupt .seg file fails the open loudly.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(names) != 1 {
		t.Fatalf("segment files = %v", names)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, HistoryLimit: 32, SealInterval: -1}); err == nil {
		t.Fatal("corrupt segment opened without error")
	}
}

func TestRetentionExpiresOldSegments(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, HistoryLimit: 64, SealInterval: -1, Retain: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Old era: runs ending by tick 50.
	apply(e, locdb.Event{Fix: locdb.Fix{Device: 1, Piconet: 3, At: 10}, Present: true})
	apply(e, locdb.Event{Fix: locdb.Fix{Device: 1, Piconet: 4, At: 50}, Present: true})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats()["segments"]; n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	// New era far past the retention window.
	apply(e, locdb.Event{Fix: locdb.Fix{Device: 1, Piconet: 5, At: 500}, Present: true})
	apply(e, locdb.Event{Fix: locdb.Fix{Device: 1, Piconet: 6, At: 600}, Present: true})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st["expired_segments"] != 1 {
		t.Fatalf("expired = %d, want 1 (stats %v)", st["expired_segments"], st)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != int(st["segments"]) {
		t.Fatalf("files on disk %d != live segments %d", len(files), st["segments"])
	}
}

// TestBackgroundSealer: the seal loop cuts a segment once the threshold
// is crossed, without an explicit Seal call.
func TestBackgroundSealer(t *testing.T) {
	e, err := Open(Options{HistoryLimit: 64, SealInterval: 5 * time.Millisecond, SealMinRuns: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 30; i++ {
		apply(e, locdb.Event{
			Fix:     locdb.Fix{Device: 1, Piconet: graph.NodeID(1 + i%5), At: sim.Tick(i * 10)},
			Present: true,
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.Stats()["segments"] > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background sealer never sealed: stats %v", e.Stats())
}

// TestContactTraceSmoke is the CI gate on the query path: a
// moderate-scale generated history (hundreds of devices, sealed
// segments) must answer contact traces correctly in well under a
// second. The million-device-day version lives in the benchmarks.
func TestContactTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, HistoryLimit: 128, SealInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const devices, rooms, moves = 200, 20, 40
	rng := rand.New(rand.NewSource(1))
	for m := 0; m < moves; m++ {
		for d := 1; d <= devices; d++ {
			// Device d walks a home zone of 4 rooms.
			room := graph.NodeID(1 + (d+rng.Intn(4))%rooms)
			apply(e, locdb.Event{
				Fix:     locdb.Fix{Device: baseband.BDAddr(d), Piconet: room, At: sim.Tick(m * 100)},
				Present: true,
			})
		}
		if m == moves/2 {
			if err := e.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	start := time.Now()
	traced := 0
	for d := 1; d <= devices; d += 7 {
		got := e.Contacts(baseband.BDAddr(d), 0, moves*100, 0)
		if len(got) == 0 {
			t.Fatalf("device %d traced no contacts in a crowded building", d)
		}
		traced++
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("%d traces took %v — contact tracing is not interactive", traced, elapsed)
	}
}
