package bips

import (
	"errors"
	"testing"
	"time"
)

func TestNewDefaults(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	slot, period := svc.DutyCycle()
	pol := PaperPolicy()
	if slot != pol.DiscoverySlot || period != pol.Cycle {
		t.Errorf("default duty cycle = %v/%v, want paper policy %v/%v",
			slot, period, pol.DiscoverySlot, pol.Cycle)
	}
	if rooms := svc.Rooms(); len(rooms) != 10 {
		t.Errorf("default building rooms = %v", rooms)
	}
}

func TestWithDutyCycleOverride(t *testing.T) {
	svc, err := New(WithSeed(5), WithDutyCycle(time.Second, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	slot, period := svc.DutyCycle()
	if slot != time.Second || period != 5*time.Second {
		t.Errorf("duty cycle = %v/%v, want 1s/5s", slot, period)
	}
}

func TestWithPolicy(t *testing.T) {
	svc, err := New(WithPolicy(PaperPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	slot, period := svc.DutyCycle()
	if slot != PaperPolicy().DiscoverySlot || period != PaperPolicy().Cycle {
		t.Errorf("duty cycle = %v/%v", slot, period)
	}
}

func TestOptionOrdering(t *testing.T) {
	// Later options override earlier ones.
	svc, err := New(WithSeed(1), WithSeed(2),
		WithDutyCycle(time.Second, 10*time.Second),
		WithDutyCycle(2*time.Second, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	slot, period := svc.DutyCycle()
	if slot != 2*time.Second || period != 20*time.Second {
		t.Errorf("duty cycle = %v/%v, want the later 2s/20s", slot, period)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"negative slot", WithDutyCycle(-time.Second, 5*time.Second)},
		{"zero period", WithDutyCycle(time.Second, 0)},
		{"nil plan", WithBuilding(nil)},
		{"zero radius", WithCoverageRadius(0)},
	}
	for _, tc := range cases {
		if _, err := New(tc.opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
	// Slot > period is rejected by the core cycle validator.
	if _, err := New(WithDutyCycle(10*time.Second, time.Second)); err == nil {
		t.Error("slot > period accepted")
	}
}

func TestWithBuildingCustomRooms(t *testing.T) {
	svc, err := New(WithBuilding(CorridorPlan(4, 12)))
	if err != nil {
		t.Fatal(err)
	}
	rooms := svc.Rooms()
	want := []string{"Room 1", "Room 2", "Room 3", "Room 4"}
	if len(rooms) != len(want) {
		t.Fatalf("rooms = %v", rooms)
	}
	for i, r := range rooms {
		if r != want[i] {
			t.Errorf("rooms[%d] = %q, want %q", i, r, want[i])
		}
	}
	p, err := svc.PathBetween("Room 1", "Room 4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Meters != 36 {
		t.Errorf("corridor end-to-end = %v m, want 36", p.Meters)
	}
}

func TestStorageOptionValidation(t *testing.T) {
	if _, err := New(WithHistoryLimit(-3)); err == nil {
		t.Error("WithHistoryLimit(-3) accepted")
	}
	if _, err := New(WithDataDir("")); err == nil {
		t.Error("WithDataDir(\"\") accepted")
	}
	// A valid data dir + history limit construct cleanly and close.
	svc, err := New(WithDataDir(t.TempDir()), WithHistoryLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	// Closing a memory-backed service is a no-op.
	mem, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Errorf("memory Close: %v", err)
	}
}
