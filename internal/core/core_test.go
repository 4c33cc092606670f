package core

import (
	"errors"
	"math"
	"testing"

	"bips/internal/baseband"
	"bips/internal/device"
	"bips/internal/mobility"
	"bips/internal/radio"
	"bips/internal/registry"
	"bips/internal/sim"
)

const pw = "pw"

func newSystem(t *testing.T, seed int64) *System {
	t.Helper()
	s, err := NewSystem(SystemConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []registry.UserID{"alice", "bob"} {
		if err := s.RegisterUser(u, string(u), pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestNewSystemDefaults(t *testing.T) {
	s := newSystem(t, 1)
	if s.Building.NumRooms() != 10 {
		t.Errorf("rooms = %d", s.Building.NumRooms())
	}
	if _, ok := s.Workstation(1); !ok {
		t.Error("workstation for room 1 missing")
	}
	if _, ok := s.Workstation(99); ok {
		t.Error("workstation for bogus room present")
	}
}

func TestStationaryUserIsTrackedAndLocated(t *testing.T) {
	s := newSystem(t, 2)
	lobby, _ := s.Building.Room(1)
	dev := baseband.BDAddr(0xB1)
	if _, err := s.AddMobile(device.Config{Addr: dev, Start: lobby.Center}); err != nil {
		t.Fatal(err)
	}
	if err := s.Login("bob", pw, dev, nil); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	// Two operational cycles are ample for discovery + enrollment.
	s.Run(90 * sim.TicksPerSecond)

	loc, err := s.Locate("alice", "bob")
	if err != nil {
		t.Fatalf("Locate: %v (db stats %+v)", err, s.Server.DB().Stats())
	}
	if loc.Room != 1 || loc.RoomName != "Lobby" {
		t.Errorf("located in %d (%s), want Lobby", loc.Room, loc.RoomName)
	}
}

func TestPathBetweenTwoUsers(t *testing.T) {
	s := newSystem(t, 3)
	lobby, _ := s.Building.Room(1)
	cafeteria, _ := s.Building.Room(10)
	devA, devB := baseband.BDAddr(0xA1), baseband.BDAddr(0xB1)
	if _, err := s.AddMobile(device.Config{Addr: devA, Start: lobby.Center}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddMobile(device.Config{Addr: devB, Start: cafeteria.Center}); err != nil {
		t.Fatal(err)
	}
	if err := s.Login("alice", pw, devA, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Login("bob", pw, devB, nil); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	s.Run(90 * sim.TicksPerSecond)

	res, err := s.PathTo("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMeters != 60 {
		t.Errorf("path total = %v, want 60", res.TotalMeters)
	}
	if res.Names[0] != "Lobby" || res.Names[len(res.Names)-1] != "Cafeteria" {
		t.Errorf("names = %v", res.Names)
	}
}

func TestWalkingUserHandsOverBetweenCells(t *testing.T) {
	s := newSystem(t, 4)
	// Walk along the north corridor between room 1 (x=0) and room 5
	// (x=48): the device must eventually be seen by a room other than
	// the one it started in.
	w, err := mobility.NewWalker(mobility.WalkerConfig{
		Bounds: mobility.Rect{MinX: 0, MinY: -2, MaxX: 48, MaxY: 2},
		Start:  radio.Point{X: 0, Y: 0},
	}, s.Kernel.Rand())
	if err != nil {
		t.Fatal(err)
	}
	dev := baseband.BDAddr(0xB1)
	if _, err := s.AddMobile(device.Config{Addr: dev, Walker: w}); err != nil {
		t.Fatal(err)
	}
	if err := s.Login("bob", pw, dev, nil); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		s.Run(10 * sim.TicksPerSecond)
		if loc, err := s.Locate("alice", "bob"); err == nil {
			seen[int(loc.Room)] = true
		}
	}
	if len(seen) < 2 {
		t.Errorf("handover never observed; rooms seen = %v (db %+v)",
			seen, s.Server.DB().Stats())
	}
}

func TestLogoutStopsTracking(t *testing.T) {
	s := newSystem(t, 5)
	lobby, _ := s.Building.Room(1)
	dev := baseband.BDAddr(0xB1)
	if _, err := s.AddMobile(device.Config{Addr: dev, Start: lobby.Center}); err != nil {
		t.Fatal(err)
	}
	if err := s.Login("bob", pw, dev, nil); err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	s.Run(90 * sim.TicksPerSecond)
	if _, err := s.Locate("alice", "bob"); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	if err := s.Logout("bob", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Locate("alice", "bob"); err == nil {
		t.Error("logged-out user still locatable")
	}
}

func TestDuplicateMobileRejected(t *testing.T) {
	s := newSystem(t, 6)
	if _, err := s.AddMobile(device.Config{Addr: 0xB1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddMobile(device.Config{Addr: 0xB1}); err == nil {
		t.Error("duplicate device accepted")
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (sim.Tick, int) {
		s := newSystem(t, 42)
		lobby, _ := s.Building.Room(1)
		dev := baseband.BDAddr(0xB1)
		if _, err := s.AddMobile(device.Config{Addr: dev, Start: lobby.Center}); err != nil {
			t.Fatal(err)
		}
		if err := s.Login("bob", pw, dev, nil); err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Stop()
		s.Run(90 * sim.TicksPerSecond)
		loc, err := s.Locate("alice", "bob")
		if err != nil {
			t.Fatal(err)
		}
		ws, _ := s.Workstation(1)
		return loc.At, ws.Stats().Discoveries
	}
	at1, d1 := run()
	at2, d2 := run()
	if at1 != at2 || d1 != d2 {
		t.Errorf("same seed diverged: (%v,%d) vs (%v,%d)", at1, d1, at2, d2)
	}
}

func TestPolicyServiceBudget(t *testing.T) {
	p := PaperPolicy()
	// The paper: "the master will dedicate a continuous slot of 3.84s
	// for device discovery and the remaining 11.56s for serving the
	// slaves".
	got := p.ServiceSlot().Seconds()
	if math.Abs(got-11.54) > 0.1 {
		t.Errorf("service slot = %.2fs, want ~11.56s", got)
	}
	bad := Policy{DiscoverySlot: 100, Cycle: 50}
	if bad.ServiceSlot() != 0 {
		t.Error("inverted policy should have zero service slot")
	}
}

func TestDerivePolicy(t *testing.T) {
	p := PaperPolicy()
	if got := p.DiscoverySlot.Seconds(); math.Abs(got-3.84) > 1e-9 {
		t.Errorf("slot = %vs, want 3.84s", got)
	}
	if got := p.Cycle.Seconds(); math.Abs(got-15.3846) > 0.01 {
		t.Errorf("cycle = %vs, want ~15.4s", got)
	}
	if math.Abs(p.ExpectedCoverage-0.95) > 1e-9 {
		t.Errorf("coverage = %v, want 0.95", p.ExpectedCoverage)
	}
	if p.Load < 0.24 || p.Load > 0.26 {
		t.Errorf("load = %v, want ~24%%", p.Load)
	}
	if err := p.DutyCycle().Validate(); err != nil {
		t.Errorf("policy duty cycle invalid: %v", err)
	}
	if _, err := DerivePolicy(-0.1, 0.9); !errors.Is(err, ErrBadPolicyInput) {
		t.Errorf("bad input error = %v", err)
	}
	if _, err := DerivePolicy(0.5, 1.5); !errors.Is(err, ErrBadPolicyInput) {
		t.Errorf("bad input error = %v", err)
	}
}
