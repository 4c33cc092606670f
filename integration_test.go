package bips

// Integration tests exercising the distributed deployment: the central
// server behind a real TCP listener, workstation cells in separate
// simulated processes pushing presence deltas over the wire protocol, and
// clients issuing the paper's queries — the full Figure 1 architecture.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/device"
	"bips/internal/graph"
	"bips/internal/hci"
	"bips/internal/locdb"
	"bips/internal/radio"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
	"bips/internal/workstation"
)

// startServer brings up a central server on a loopback TCP port.
func startServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := reg.Register(registry.UserID(u), u, "pw",
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(reg, locdb.New(), bld)
	srv.Logf = t.Logf
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Logf("server close: %v", err)
		}
		<-done
	})
	return srv, l.Addr().String()
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	client := wire.NewClient(wire.NewFrameCodec(conn))
	t.Cleanup(func() {
		if err := client.Close(); err != nil {
			t.Logf("client close: %v", err)
		}
	})
	return client
}

// stationReport sends one presence delta the way a station does: an
// ingest.hello resumes the device's own session and returns its ack,
// then a one-delta presence.batch follows at the next frame sequence.
func stationReport(c *wire.Client, p wire.Presence) error {
	session := "station-" + p.Device
	var ack wire.IngestAck
	if err := c.Call(wire.MsgIngestHello, wire.IngestHello{Session: session, Station: session, Room: 1}, &ack); err != nil {
		return err
	}
	return c.Call(wire.MsgPresenceBatch, wire.PresenceBatch{Session: session, Seq: ack.Acked + 1, Deltas: []wire.Presence{p}}, &ack)
}

// simCell simulates one workstation cell whose deltas travel over TCP.
type simCell struct {
	kernel *sim.Kernel
	ws     *workstation.Workstation
	ctrl   *hci.HCI
}

// reportFunc adapts a function to workstation.Reporter.
type reportFunc func(deltas []wire.Presence) error

func (f reportFunc) ReportBatch(deltas []wire.Presence) error { return f(deltas) }

func newSimCell(t *testing.T, addr string, room graph.NodeID, seed int64, devices []baseband.BDAddr) *simCell {
	t.Helper()
	client := dial(t, addr)
	station := building.StationAddr(int(room))
	session := station.String()
	var ack wire.IngestAck
	if err := client.Call(wire.MsgIngestHello, wire.IngestHello{
		Session: session, Station: station.String(), Room: room,
	}, &ack); err != nil {
		t.Fatal(err)
	}
	seq := ack.Acked
	k := sim.NewKernel(seed)
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: station, Pos: radio.Point{}})
	ctrl := hci.New(k, hci.Config{Addr: station}, med)
	t.Cleanup(ctrl.Close)
	// Each reported batch is one sequenced frame of the cell's session.
	rep := reportFunc(func(deltas []wire.Presence) error {
		seq++
		return client.Call(wire.MsgPresenceBatch, wire.PresenceBatch{
			Session: session, Seq: seq, Deltas: deltas,
		}, &ack)
	})
	ws, err := workstation.New(k, ctrl, workstation.Config{Room: room}, rep)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 99))
	for _, dev := range devices {
		m, err := device.New(k, med, device.Config{
			Addr:  dev,
			Start: radio.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		ctrl.AttachDevice(m.Radio())
	}
	return &simCell{kernel: k, ws: ws, ctrl: ctrl}
}

func (c *simCell) run(d sim.Tick) {
	c.ws.Start()
	c.kernel.RunUntil(c.kernel.Now() + d)
	c.ws.Stop()
}

func TestDistributedTrackingOverTCP(t *testing.T) {
	_, addr := startServer(t)
	client := dial(t, addr)

	devAlice := baseband.BDAddr(0xC1)
	devBob := baseband.BDAddr(0xC2)
	for user, dev := range map[string]baseband.BDAddr{"alice": devAlice, "bob": devBob} {
		if err := client.Call(wire.MsgLogin, wire.Login{
			User: user, Password: "pw", Device: dev.String(),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Two cells in different rooms, each tracking one device; their
	// simulated kernels run independently (as real stations would).
	cellLobby := newSimCell(t, addr, 1, 11, []baseband.BDAddr{devAlice})
	cellLib := newSimCell(t, addr, 6, 12, []baseband.BDAddr{devBob})
	var wg sync.WaitGroup
	for _, c := range []*simCell{cellLobby, cellLib} {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(90 * sim.TicksPerSecond)
		}()
	}
	wg.Wait()

	var loc wire.LocateResult
	if err := client.Call(wire.MsgLocate, wire.Locate{
		Querier: "alice", Target: "bob",
	}, &loc); err != nil {
		t.Fatalf("locate bob: %v", err)
	}
	if loc.Room != 6 || loc.RoomName != "Library" {
		t.Errorf("bob located in %d (%s), want Library", loc.Room, loc.RoomName)
	}

	var path wire.PathResult
	if err := client.Call(wire.MsgPath, wire.PathQuery{
		Querier: "alice", Target: "bob",
	}, &path); err != nil {
		t.Fatalf("path to bob: %v", err)
	}
	if path.Names[0] != "Lobby" || path.Names[len(path.Names)-1] != "Library" {
		t.Errorf("path = %v", path.Names)
	}
	if path.TotalMeters != 12 {
		t.Errorf("distance = %v, want 12 (one stairwell hop)", path.TotalMeters)
	}
}

func TestDistributedHandoverAcrossCells(t *testing.T) {
	srv, addr := startServer(t)
	client := dial(t, addr)
	dev := baseband.BDAddr(0xC7)
	if err := client.Call(wire.MsgLogin, wire.Login{
		User: "carol", Password: "pw", Device: dev.String(),
	}, nil); err != nil {
		t.Fatal(err)
	}

	// The device is first tracked by room 1's cell, then "walks" to
	// room 2's cell: the DB must follow, and the stale absence from
	// room 1 must not clobber the new presence.
	cell1 := newSimCell(t, addr, 1, 21, []baseband.BDAddr{dev})
	cell1.run(60 * sim.TicksPerSecond)
	var loc wire.LocateResult
	if err := client.Call(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "carol"}, &loc); err != nil {
		t.Fatalf("locate after cell1: %v", err)
	}
	if loc.Room != 1 {
		t.Fatalf("room = %d, want 1", loc.Room)
	}

	cell2 := newSimCell(t, addr, 2, 22, []baseband.BDAddr{dev})
	cell2.run(60 * sim.TicksPerSecond)
	if err := client.Call(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "carol"}, &loc); err != nil {
		t.Fatalf("locate after cell2: %v", err)
	}
	if loc.Room != 2 {
		t.Errorf("room after handover = %d, want 2", loc.Room)
	}

	// Delta accounting on the server side.
	if st := srv.DB().Stats(); st.Updates < 2 {
		t.Errorf("server saw %d updates, want >= 2", st.Updates)
	}
}

func TestManyClientsConcurrently(t *testing.T) {
	_, addr := startServer(t)
	setup := dial(t, addr)
	dev := baseband.BDAddr(0xC9)
	if err := setup.Call(wire.MsgLogin, wire.Login{
		User: "bob", Password: "pw", Device: dev.String(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := stationReport(setup, wire.Presence{
		Device: dev.String(), Room: 5, At: 10, Present: true,
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, addr)
			for j := 0; j < 20; j++ {
				var loc wire.LocateResult
				if err := c.Call(wire.MsgLocate, wire.Locate{
					Querier: "alice", Target: "bob",
				}, &loc); err != nil {
					t.Errorf("locate: %v", err)
					return
				}
				if loc.Room != 5 {
					t.Errorf("room = %d", loc.Room)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func ExampleService() {
	svc, err := New(WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	svc.MustRegister("alice", "pw")
	svc.MustRegister("bob", "pw")
	if _, err := svc.AddStationaryUser("alice", "pw", "Lobby"); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := svc.AddStationaryUser("bob", "pw", "Cafeteria"); err != nil {
		fmt.Println(err)
		return
	}
	svc.Start()
	defer svc.Stop()
	svc.Run(90 * 1e9) // 90 simulated seconds
	path, err := svc.PathTo("alice", "bob")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%.0f m\n", path.Meters)
	// Output: 60 m
}
