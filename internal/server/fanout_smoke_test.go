package server_test

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/ingest"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
)

// TestFanOutSmoke5000Subscriptions is the fan-out scale acceptance run:
// 5,000 live subscriptions on one server over TCP, two ingest sessions
// streaming paced frames in the background, and a probe mover whose
// events must reach every subscribed connection with a p99 delivery
// latency under a generous bound — with zero dropped events, because
// every consumer here keeps up.
func TestFanOutSmoke5000Subscriptions(t *testing.T) {
	if testing.Short() {
		t.Skip("fan-out smoke run skipped in -short mode")
	}
	const (
		conns       = 25
		subsPerConn = 200 // conns * subsPerConn = 5,000
		probeRoom   = graph.NodeID(6)
		parkRoom    = graph.NodeID(5)
		probeMoves  = 40
		probeUser   = "u7"
		movers      = 4 // u0..u3 carry the background ingest
	)
	userDev := func(i int) string { return wire.FormatAddr(baseband.BDAddr(0xE000_0000_0001 + uint64(i))) }
	probeDev := userDev(7)

	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("u%d", i)
		if err := reg.Register(registry.UserID(name), name, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	db, err := locdb.NewSharded(8, locdb.DefaultHistoryLimit)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(reg, db, bld)
	s.Logf = t.Logf
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	for _, i := range []int{0, 1, 2, 3, 7} {
		if err := s.Login(wire.Login{User: fmt.Sprintf("u%d", i), Password: pw, Device: userDev(i)}); err != nil {
			t.Fatal(err)
		}
	}

	dial := func() *wire.Client {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewClient(wire.NewFrameCodec(conn))
		t.Cleanup(func() { c.Close() })
		return c
	}
	driver := dial()

	// Latency samples: send wall time per probe tick, matched against
	// arrival time in each connection's push handler.
	var lat struct {
		mu      sync.Mutex
		sent    map[sim.Tick]time.Time
		samples []time.Duration
	}
	lat.sent = make(map[sim.Tick]time.Time, probeMoves)

	// Fan out the subscription population: each connection holds one
	// probe-room subscription (the measured fan-out path) plus a bulk of
	// occupancy subscriptions with unreachable thresholds — live index
	// entries the tree must carry and skip past on every single delta.
	var setup sync.WaitGroup
	setupErr := make(chan error, conns)
	for i := 0; i < conns; i++ {
		c := dial()
		c.SetPushHandler(func(env wire.Envelope) {
			var e wire.Event
			if wire.UnmarshalBody(env, &e) != nil {
				return
			}
			if e.Sub != "probe" || e.Device != probeDev {
				return // background ingest traffic, not the probe
			}
			now := time.Now()
			lat.mu.Lock()
			if sent, ok := lat.sent[e.At]; ok {
				lat.samples = append(lat.samples, now.Sub(sent))
			}
			lat.mu.Unlock()
		})
		setup.Add(1)
		go func(c *wire.Client, i int) {
			defer setup.Done()
			if err := c.Call(wire.MsgSubscribe, wire.Subscribe{
				ID: "probe", Querier: probeUser,
				Filter: wire.SubFilter{Kind: wire.FilterRoom, Room: probeRoom},
			}, nil); err != nil {
				setupErr <- fmt.Errorf("conn %d probe subscribe: %w", i, err)
				return
			}
			for k := 1; k < subsPerConn; k++ {
				if err := c.Call(wire.MsgSubscribe, wire.Subscribe{
					ID: fmt.Sprintf("bulk-%d", k), Querier: probeUser,
					Filter: wire.SubFilter{
						Kind:      wire.FilterOccupancy,
						Room:      graph.NodeID(1 + k%10),
						Threshold: 1000, // never crossed: pure index weight
					},
				}, nil); err != nil {
					setupErr <- fmt.Errorf("conn %d bulk subscribe %d: %w", i, k, err)
					return
				}
			}
		}(c, i)
	}
	setup.Wait()
	close(setupErr)
	for err := range setupErr {
		t.Fatal(err)
	}

	var stats wire.StatsResult
	if err := driver.Call(wire.MsgStats, wire.StatsQuery{}, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Counters["fanout.subscriptions"]; got != conns*subsPerConn {
		t.Fatalf("live subscriptions = %d, want %d", got, conns*subsPerConn)
	}

	// Background ingest for the duration of the probing: 32-delta frames
	// alternating between two sessions, paced to ~2,000 deltas/s so
	// "keeping up" is what we are actually asserting about consumers.
	loadDone := make(chan error, 1)
	go func() {
		const frame = 32
		var stations [2]*ingest.Client
		for i := range stations {
			session := fmt.Sprintf("smoke-%d", i)
			c, err := ingest.NewClient(ingest.ClientConfig{Addr: addr, Session: session, Station: session, Room: 1})
			if err != nil {
				loadDone <- err
				return
			}
			defer c.Close()
			stations[i] = c
		}
		rng := rand.New(rand.NewSource(7))
		tick := time.NewTicker(time.Second * frame / 2000)
		defer tick.Stop()
		stop := time.After(1500 * time.Millisecond)
		var sent [2]int64
	pace:
		for n := 0; ; n++ {
			select {
			case <-stop:
				break pace
			case <-tick.C:
			}
			deltas := make([]wire.Presence, frame)
			for j := range deltas {
				deltas[j] = presenceAt(userDev(rng.Intn(movers)),
					graph.NodeID(1+rng.Intn(10)), sim.Tick(n*frame+j+1), true)
			}
			if err := stations[n%2].ReportBatch(deltas); err != nil {
				loadDone <- err
				return
			}
			sent[n%2] += frame
		}
		for i, c := range stations {
			if err := c.Drain(10 * time.Second); err != nil {
				loadDone <- err
				return
			}
			if st := c.Stats(); st.WireErrors != 0 || st.DeltasAcked != sent[i] {
				loadDone <- fmt.Errorf("session %d: %d wire errors, %d of %d deltas acked", i, st.WireErrors, st.DeltasAcked, sent[i])
				return
			}
		}
		loadDone <- nil
	}()

	// The probe: bounce the probe user in and out of the probe room.
	// Every move produces exactly one probe-room event fanned out to
	// all connections.
	time.Sleep(100 * time.Millisecond) // let the ingest sessions open
	for i := 0; i < probeMoves; i++ {
		room := probeRoom
		if i%2 == 1 {
			room = parkRoom
		}
		at := sim.Tick(1_000_000 + i)
		lat.mu.Lock()
		lat.sent[at] = time.Now()
		lat.mu.Unlock()
		if err := server.StationReport(driver, presenceAt(probeDev, room, at, true)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}

	// Every connection must receive every probe event.
	wantSamples := conns * probeMoves
	deadline := time.Now().Add(15 * time.Second)
	for {
		lat.mu.Lock()
		n := len(lat.samples)
		lat.mu.Unlock()
		if n >= wantSamples {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d probe deliveries arrived", n, wantSamples)
		}
		time.Sleep(10 * time.Millisecond)
	}

	lat.mu.Lock()
	samples := append([]time.Duration(nil), lat.samples...)
	lat.mu.Unlock()
	if len(samples) != wantSamples {
		t.Fatalf("probe deliveries = %d, want exactly %d (duplicates?)", len(samples), wantSamples)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p99 := samples[len(samples)*99/100]
	t.Logf("probe delivery latency: p50=%v p99=%v max=%v",
		samples[len(samples)/2], p99, samples[len(samples)-1])
	if p99 > time.Second {
		t.Errorf("p99 delivery latency %v exceeds 1s", p99)
	}

	// Nobody fell behind: every consumer kept up, so the server dropped
	// nothing and killed nobody.
	if err := driver.Call(wire.MsgStats, wire.StatsQuery{}, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Counters["fanout.events_dropped"]; got != 0 {
		t.Errorf("fanout.events_dropped = %d, want 0", got)
	}
	if got := stats.Counters["fanout.slow_kills"]; got != 0 {
		t.Errorf("fanout.slow_kills = %d, want 0", got)
	}
	if got := stats.Counters["fanout.events_pushed"]; got < int64(wantSamples) {
		t.Errorf("fanout.events_pushed = %d, want >= %d", got, wantSamples)
	}
}
