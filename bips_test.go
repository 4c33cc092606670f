package bips

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func newService(t *testing.T, seed int64) *Service {
	t.Helper()
	svc, err := New(WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	svc.MustRegister("alice", "pw")
	svc.MustRegister("bob", "pw")
	return svc
}

func TestRooms(t *testing.T) {
	svc := newService(t, 1)
	rooms := svc.Rooms()
	if len(rooms) != 10 {
		t.Fatalf("rooms = %v", rooms)
	}
	if rooms[0] != "Lobby" || rooms[9] != "Cafeteria" {
		t.Errorf("rooms = %v", rooms)
	}
}

func TestUnknownRoomRejected(t *testing.T) {
	svc := newService(t, 1)
	if _, err := svc.AddStationaryUser("alice", "pw", "Dungeon"); !errors.Is(err, ErrUnknownRoom) {
		t.Errorf("error = %v", err)
	}
}

func TestLocateAndPath(t *testing.T) {
	svc := newService(t, 2)
	if _, err := svc.AddStationaryUser("alice", "pw", "Lobby"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddStationaryUser("bob", "pw", "Cafeteria"); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop()
	svc.Run(90 * time.Second)

	loc, err := svc.Locate("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if loc.RoomName != "Cafeteria" {
		t.Errorf("bob located in %q", loc.RoomName)
	}
	if loc.Age < 0 || loc.Age > 90*time.Second {
		t.Errorf("age = %v", loc.Age)
	}
	path, err := svc.PathTo("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if path.Meters != 60 {
		t.Errorf("path = %+v, want 60m", path)
	}
	if path.RoomNames[0] != "Lobby" || path.RoomNames[len(path.RoomNames)-1] != "Cafeteria" {
		t.Errorf("path rooms = %v", path.RoomNames)
	}
}

// TestCloseReleasesDeployment: Close releases every goroutine a
// deployment started — the server's own analytics sealer included —
// so running many deployments in one process (Monte-Carlo replicas)
// does not accumulate them, and queries still answer from memory
// afterwards, as Close documents.
func TestCloseReleasesDeployment(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		svc := newService(t, int64(i))
		for _, u := range []string{"alice", "bob"} {
			if _, err := svc.AddStationaryUser(u, "pw", "Library"); err != nil {
				t.Fatal(err)
			}
		}
		svc.Start()
		svc.Run(90 * time.Second)
		svc.Stop()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if loc, err := svc.Locate("alice", "bob"); err != nil || loc.RoomName != "Library" {
			t.Fatalf("Locate after Close = %+v, %v", loc, err)
		}
		if cs, err := svc.Contacts("alice", "bob", 0, 90*time.Second, 0); err != nil || len(cs) != 1 || cs[0].User != "alice" {
			t.Fatalf("Contacts after Close = %+v, %v", cs, err)
		}
	}
	// Close joins what it stops; the grace period only absorbs
	// goroutines of earlier tests that are still winding down.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before 10 New/Run/Close rounds, %d after", before, after)
	}
}

func TestLogoutStopsTracking(t *testing.T) {
	svc := newService(t, 3)
	if _, err := svc.AddStationaryUser("bob", "pw", "Library"); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop()
	svc.Run(90 * time.Second)
	if _, err := svc.Locate("alice", "bob"); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	if err := svc.Logout("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Locate("alice", "bob"); err == nil {
		t.Error("located after logout")
	}
}

func TestWalkingUserIsTracked(t *testing.T) {
	svc := newService(t, 4)
	if _, err := svc.AddWalkingUser("bob", "pw", "Lobby"); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop()
	located := false
	for i := 0; i < 30 && !located; i++ {
		svc.Run(10 * time.Second)
		if _, err := svc.Locate("alice", "bob"); err == nil {
			located = true
		}
	}
	if !located {
		t.Error("walking user never located in 300s")
	}
}

func TestCustomCycleConfig(t *testing.T) {
	svc, err := New(WithSeed(5), WithDutyCycle(time.Second, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	svc.MustRegister("alice", "pw")
	svc.MustRegister("bob", "pw")
	if _, err := svc.AddStationaryUser("bob", "pw", "Lobby"); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop()
	// A 1 s slot restarts on train A every cycle, so a train-B slave is
	// only caught once its scan frequency drifts into train A; allow a
	// couple of minutes of simulated time.
	svc.Run(180 * time.Second)
	if _, err := svc.Locate("alice", "bob"); err != nil {
		t.Errorf("not located under fast cycle: %v", err)
	}
}

func TestInvalidCycleConfig(t *testing.T) {
	if _, err := New(WithDutyCycle(10*time.Second, time.Second)); err == nil {
		t.Error("invalid cycle accepted")
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	svc := newService(t, 6)
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate registration")
		}
	}()
	svc.MustRegister("alice", "pw")
}

func TestPaperPolicy(t *testing.T) {
	p := PaperPolicy()
	if p.DiscoverySlot != 3840*time.Millisecond {
		t.Errorf("slot = %v", p.DiscoverySlot)
	}
	if p.ExpectedCoverage != 0.95 {
		t.Errorf("coverage = %v", p.ExpectedCoverage)
	}
	if p.Load < 0.24 || p.Load > 0.26 {
		t.Errorf("load = %v", p.Load)
	}
	if p.Cycle < 15*time.Second || p.Cycle > 16*time.Second {
		t.Errorf("cycle = %v", p.Cycle)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		svc := newService(t, 42)
		if _, err := svc.AddStationaryUser("bob", "pw", "Lab 1"); err != nil {
			t.Fatal(err)
		}
		svc.Start()
		defer svc.Stop()
		svc.Run(90 * time.Second)
		loc, err := svc.Locate("alice", "bob")
		if err != nil {
			t.Fatal(err)
		}
		return loc.RoomName + loc.Age.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %q vs %q", a, b)
	}
}
