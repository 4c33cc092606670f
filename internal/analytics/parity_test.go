package analytics

// Parity properties: with sealing disabled the engine's hot tier is a
// pure function of the event stream, mirroring histdb, so every answer
// must byte-match (as JSON) a naive recomputation straight from the
// per-device histories in locdb.Dump — under randomized ingest with
// out-of-order ticks, absences, drops and history eviction. The fan-out
// tree's live occupancy must likewise agree with locdb's current fixes.

import (
	"math/rand"
	"sort"
	"testing"

	"bips/internal/baseband"
	"bips/internal/fanout"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// intervalsOf derives the presence runs from one device's dumped
// history: run i spans [v_i, v_{i+1}) in v_i's room, the newest run is
// open-ended and clips to the horizon `to`.
type devIv struct {
	room graph.NodeID
	runIv
}

func intervalsOf(h []locdb.Fix, to sim.Tick) []devIv {
	out := make([]devIv, 0, len(h))
	for i, f := range h {
		end := to
		if i+1 < len(h) {
			end = h[i+1].At
		}
		out = append(out, devIv{room: f.Piconet, runIv: runIv{start: f.At, end: end}})
	}
	return out
}

func naiveContacts(dumps []locdb.DeviceDump, dev baseband.BDAddr, from, to, minOverlap sim.Tick) []Contact {
	if to <= from {
		return nil
	}
	if minOverlap < 1 {
		minOverlap = 1
	}
	var target []devIv
	others := make(map[baseband.BDAddr][]devIv)
	for _, d := range dumps {
		ivs := intervalsOf(d.History, to)
		if d.Device == dev {
			target = ivs
		} else {
			others[d.Device] = ivs
		}
	}
	acc := make(map[baseband.BDAddr]*contactAcc)
	for other, ivs := range others {
		for _, a := range target {
			ar, ok := clip(a.runIv, from, to)
			if !ok {
				continue
			}
			for _, b := range ivs {
				if b.room != a.room {
					continue
				}
				br, ok := clip(b.runIv, from, to)
				if !ok {
					continue
				}
				s, en := ar.start, ar.end
				if br.start > s {
					s = br.start
				}
				if br.end < en {
					en = br.end
				}
				if en <= s {
					continue
				}
				ca := acc[other]
				if ca == nil {
					ca = &contactAcc{rooms: make(map[graph.NodeID]struct{}), first: s, last: en}
					acc[other] = ca
				}
				ca.overlap += en - s
				ca.rooms[a.room] = struct{}{}
				if s < ca.first {
					ca.first = s
				}
				if en > ca.last {
					ca.last = en
				}
			}
		}
	}
	out := make([]Contact, 0, len(acc))
	for other, a := range acc {
		if a.overlap < minOverlap {
			continue
		}
		rooms := make([]graph.NodeID, 0, len(a.rooms))
		for r := range a.rooms {
			rooms = append(rooms, r)
		}
		sort.Slice(rooms, func(i, j int) bool { return rooms[i] < rooms[j] })
		out = append(out, Contact{Device: other, Overlap: a.overlap, Rooms: rooms, First: a.first, Last: a.last})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		return out[i].Device < out[j].Device
	})
	if len(out) > MaxContacts {
		out = out[:MaxContacts]
	}
	return out
}

func naiveOccupancy(dumps []locdb.DeviceDump, rooms []graph.NodeID, from, to, bucket sim.Tick) []OccupancyPoint {
	if to <= from || bucket <= 0 {
		return nil
	}
	nb64 := (int64(to-from) + int64(bucket) - 1) / int64(bucket)
	if nb64 <= 0 || nb64 > maxBuckets {
		return nil
	}
	nb := int(nb64)
	want := make(map[graph.NodeID]struct{}, len(rooms))
	for _, r := range rooms {
		want[r] = struct{}{}
	}
	sets := make([]map[baseband.BDAddr]struct{}, nb)
	for _, d := range dumps {
		for _, ivd := range intervalsOf(d.History, to) {
			if _, ok := want[ivd.room]; !ok {
				continue
			}
			r, ok := clip(ivd.runIv, from, to)
			if !ok {
				continue
			}
			lo := int((r.start - from) / bucket)
			hi := int((r.end - 1 - from) / bucket)
			for k := lo; k <= hi; k++ {
				if sets[k] == nil {
					sets[k] = make(map[baseband.BDAddr]struct{})
				}
				sets[k][d.Device] = struct{}{}
			}
		}
	}
	out := make([]OccupancyPoint, nb)
	for k := range out {
		out[k] = OccupancyPoint{Start: from + sim.Tick(k)*bucket, Count: len(sets[k])}
	}
	return out
}

func naiveDwellRoom(dumps []locdb.DeviceDump, room graph.NodeID, from, to sim.Tick) DwellStats {
	if to <= from {
		return DwellStats{}
	}
	var durs []float64
	for _, d := range dumps {
		for _, ivd := range intervalsOf(d.History, to) {
			if ivd.room != room {
				continue
			}
			if r, ok := clip(ivd.runIv, from, to); ok {
				durs = append(durs, float64(r.end-r.start))
			}
		}
	}
	return summarize(durs)
}

func naiveDwellDevice(dumps []locdb.DeviceDump, dev baseband.BDAddr, from, to sim.Tick) DwellStats {
	if to <= from {
		return DwellStats{}
	}
	var durs []float64
	for _, d := range dumps {
		if d.Device != dev {
			continue
		}
		for _, ivd := range intervalsOf(d.History, to) {
			if r, ok := clip(ivd.runIv, from, to); ok {
				durs = append(durs, float64(r.end-r.start))
			}
		}
	}
	return summarize(durs)
}

// TestParityWithPerDeviceLogs drives randomized ingest — out-of-order
// ticks, absences, drops, eviction past the history limit — through a
// real locdb with the engine and the fan-out tree subscribed, then
// byte-compares every query family against the naive recomputation and
// the tree's occupancy against locdb's current fixes.
func TestParityWithPerDeviceLogs(t *testing.T) {
	const (
		devices = 16
		rooms   = 8
		limit   = 24 // small: forces eviction parity to matter
		events  = 4000
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := locdb.NewSharded(4, limit)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(Options{HistoryLimit: db.HistoryLimit(), SealInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		tree := fanout.New()
		defer tree.Close()
		db.SubscribeSink(e)
		db.SubscribeSink(tree)
		e.Seed(db.Dump())
		tree.Seed(db.All())

		tick := sim.Tick(50)
		for i := 0; i < events; i++ {
			tick += sim.Tick(rng.Intn(6))
			dev := baseband.BDAddr(1 + rng.Intn(devices))
			at := tick
			if rng.Intn(8) == 0 {
				at -= sim.Tick(rng.Intn(40)) // out-of-order report
			}
			switch rng.Intn(20) {
			case 18: // absence from the current room (when present)
				if fix, err := db.Locate(dev); err == nil {
					absent(db, dev, fix.Piconet, at)
				}
			case 19:
				if rng.Intn(3) == 0 {
					db.Drop(dev)
				}
			default:
				present(db, dev, graph.NodeID(1+rng.Intn(rooms)), at)
			}
			if i%500 == 0 {
				inRoom := make(map[graph.NodeID]int)
				for _, f := range db.All() {
					inRoom[f.Piconet]++
				}
				for r := graph.NodeID(0); r <= rooms+1; r++ {
					if got, want := tree.Occupancy(r), inRoom[r]; got != want {
						t.Fatalf("seed %d event %d: fanout.Occupancy(%d) = %d, locdb holds %d fixes there", seed, i, r, got, want)
					}
				}
			}
		}

		dumps := db.Dump()
		for q := 0; q < 8; q++ {
			from := sim.Tick(rng.Intn(int(tick)))
			to := from + sim.Tick(1+rng.Intn(int(tick)))
			minOv := sim.Tick(rng.Intn(3) * rng.Intn(20))
			bucket := sim.Tick(1 + rng.Intn(60))
			zone := []graph.NodeID{graph.NodeID(1 + rng.Intn(rooms)), graph.NodeID(1 + rng.Intn(rooms))}
			for d := 1; d <= devices; d++ {
				dev := baseband.BDAddr(d)
				checkJSONEqual(t, "contacts",
					e.Contacts(dev, from, to, minOv), naiveContacts(dumps, dev, from, to, minOv))
				checkJSONEqual(t, "dwellDevice",
					e.DwellDevice(dev, from, to), naiveDwellDevice(dumps, dev, from, to))
			}
			for r := graph.NodeID(1); r <= rooms; r++ {
				checkJSONEqual(t, "dwellRoom",
					e.DwellRoom(r, from, to), naiveDwellRoom(dumps, r, from, to))
			}
			checkJSONEqual(t, "occupancy",
				e.Occupancy(zone, from, to, bucket), naiveOccupancy(dumps, zone, from, to, bucket))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
