// Package device models a mobile BIPS user's handheld: the Bluetooth slave
// radio behaviour of the paper's experiments (inquiry-scan windows
// alternating with page-scan windows, per Section 4.1) plus motion over the
// floor plan. A Mobile keeps its position on the shared radio medium up to
// date as its walker moves, which is how workstations' coverage discs gain
// and lose it.
package device

import (
	"fmt"
	"math/rand"

	"bips/internal/baseband"
	"bips/internal/hci"
	"bips/internal/inquiry"
	"bips/internal/mobility"
	"bips/internal/page"
	"bips/internal/radio"
	"bips/internal/sim"
)

// DefaultPositionUpdate is how often a moving device refreshes its position
// on the medium.
const DefaultPositionUpdate = sim.Tick(1600) // 0.5 s

// Config configures a mobile device.
type Config struct {
	// Addr is the device BD_ADDR. Required.
	Addr baseband.BDAddr
	// Walker animates the device. Nil means the device is stationary at
	// Start.
	Walker *mobility.Walker
	// Start is the initial position (used when Walker is nil; otherwise
	// the walker's own position wins).
	Start radio.Point
	// PositionUpdate overrides DefaultPositionUpdate when non-zero.
	PositionUpdate sim.Tick
	// KeepResponding keeps the device answering inquiries after
	// enrollment (used by multi-cell tracking, where neighbour cells
	// must still discover it).
	KeepResponding bool
}

// Mobile is one handheld in the simulation world.
type Mobile struct {
	cfg    Config
	kernel *sim.Kernel
	medium *radio.Medium
	dev    hci.Device
	stop   func()
}

// New creates the device, registers it on the medium and, if it has a
// walker, starts position updates. rng seeds the radio phases.
func New(k *sim.Kernel, medium *radio.Medium, cfg Config, rng *rand.Rand) (*Mobile, error) {
	if !cfg.Addr.Valid() {
		return nil, fmt.Errorf("device: invalid address %v", cfg.Addr)
	}
	if cfg.PositionUpdate == 0 {
		cfg.PositionUpdate = DefaultPositionUpdate
	}
	offset := sim.Tick(rng.Int63n(int64(2 * baseband.TInquiryScanTicks)))
	m := &Mobile{
		cfg:    cfg,
		kernel: k,
		medium: medium,
		dev: hci.Device{
			Slave: inquiry.NewSlave(inquiry.SlaveConfig{
				Addr:           cfg.Addr,
				ClockOffset:    offset,
				ScanPhase:      baseband.FreqIndex(rng.Intn(baseband.NumInquiryFreqs)),
				Mode:           inquiry.ScanAlternating,
				KeepResponding: cfg.KeepResponding,
			}),
			Scanner: page.Scanner{
				Addr:                  cfg.Addr,
				ClockOffset:           offset,
				AlternatesWithInquiry: true,
				Connectable:           true,
			},
		},
	}
	pos := cfg.Start
	if cfg.Walker != nil {
		pos = cfg.Walker.At(k.Now())
	}
	medium.Place(radio.Station{Addr: cfg.Addr, Pos: pos})
	if cfg.Walker != nil {
		m.stop = k.Ticker(cfg.PositionUpdate, m.tick)
	}
	return m, nil
}

func (m *Mobile) tick(k *sim.Kernel) {
	m.medium.Move(m.cfg.Addr, m.cfg.Walker.At(k.Now()))
}

// Addr returns the device address.
func (m *Mobile) Addr() baseband.BDAddr { return m.cfg.Addr }

// Radio returns the device's radio roles for attachment to controllers.
func (m *Mobile) Radio() hci.Device { return m.dev }

// Position returns the device's current position on the medium.
func (m *Mobile) Position() (radio.Point, bool) {
	return m.medium.Position(m.cfg.Addr)
}

// Remove stops position updates and removes the device from the medium
// (the user powered the handheld off or left the building).
func (m *Mobile) Remove() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
	m.medium.Remove(m.cfg.Addr)
}
