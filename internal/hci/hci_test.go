package hci

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"bips/internal/baseband"
	"bips/internal/inquiry"
	"bips/internal/page"
	"bips/internal/radio"
	"bips/internal/sim"
)

func testDevice(rng *rand.Rand, addr baseband.BDAddr) Device {
	offset := sim.Tick(rng.Int63n(int64(2 * baseband.TInquiryScanTicks)))
	return Device{
		Slave: inquiry.NewSlave(inquiry.SlaveConfig{
			Addr:        addr,
			ClockOffset: offset,
			ScanPhase:   baseband.FreqIndex(rng.Intn(baseband.NumInquiryFreqs)),
			Mode:        inquiry.ScanAlternating,
		}),
		Scanner: page.Scanner{
			Addr:                  addr,
			ClockOffset:           offset,
			AlternatesWithInquiry: true,
			Connectable:           true,
		},
	}
}

// harness wires an HCI with an event recorder.
type harness struct {
	k      *sim.Kernel
	h      *HCI
	events []Event
}

func newHarness(t *testing.T, seed int64, med *radio.Medium) *harness {
	t.Helper()
	k := sim.NewKernel(seed)
	h := New(k, Config{Addr: 1}, med)
	ha := &harness{k: k, h: h}
	h.OnEvent = func(e Event) { ha.events = append(ha.events, e) }
	return ha
}

func (ha *harness) count(t EventType) int {
	n := 0
	for _, e := range ha.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

func (ha *harness) last(t EventType) (Event, bool) {
	for i := len(ha.events) - 1; i >= 0; i-- {
		if ha.events[i].Type == t {
			return ha.events[i], true
		}
	}
	return Event{}, false
}

func TestInquiryDiscoversAndCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ha := newHarness(t, rng.Int63(), nil)
	defer ha.h.Close()
	ha.h.AttachDevice(testDevice(rng, 0xB1))

	if err := ha.h.Inquiry(10 * sim.TicksPerSecond); err != nil {
		t.Fatal(err)
	}
	if !ha.h.Inquiring() {
		t.Error("Inquiring() false during inquiry")
	}
	if err := ha.h.Inquiry(10); !errors.Is(err, ErrInquiryRunning) {
		t.Errorf("second inquiry error = %v", err)
	}
	ha.k.RunUntil(12 * sim.TicksPerSecond)
	if got := ha.count(EventInquiryResult); got != 1 {
		t.Errorf("inquiry results = %d, want 1", got)
	}
	if got := ha.count(EventInquiryComplete); got != 1 {
		t.Errorf("inquiry completes = %d, want 1", got)
	}
	if ha.h.Inquiring() {
		t.Error("Inquiring() true after completion")
	}
}

func TestInquiryCancel(t *testing.T) {
	ha := newHarness(t, 4, nil)
	defer ha.h.Close()
	if err := ha.h.Inquiry(10 * sim.TicksPerSecond); err != nil {
		t.Fatal(err)
	}
	ha.k.RunUntil(100)
	if err := ha.h.InquiryCancel(); err != nil {
		t.Fatal(err)
	}
	if ha.h.Inquiring() {
		t.Error("still inquiring after cancel")
	}
	if got := ha.count(EventInquiryComplete); got != 1 {
		t.Errorf("completes after cancel = %d, want 1", got)
	}
	// The deferred timeout must not emit a second complete.
	ha.k.RunUntil(20 * sim.TicksPerSecond)
	if got := ha.count(EventInquiryComplete); got != 1 {
		t.Errorf("completes after timeout tick = %d, want 1", got)
	}
	// Cancel when idle is a no-op.
	if err := ha.h.InquiryCancel(); err != nil {
		t.Errorf("idle cancel = %v", err)
	}
}

func TestRepeatInquiryReportsDeviceAgain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ha := newHarness(t, rng.Int63(), nil)
	defer ha.h.Close()
	ha.h.AttachDevice(testDevice(rng, 0xB1))
	for i := 0; i < 2; i++ {
		if err := ha.h.Inquiry(10 * sim.TicksPerSecond); err != nil {
			t.Fatal(err)
		}
		ha.k.RunUntil(ha.k.Now() + 11*sim.TicksPerSecond)
	}
	if got := ha.count(EventInquiryResult); got != 2 {
		t.Errorf("results over two inquiries = %d, want 2", got)
	}
}

func TestCreateConnectionLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ha := newHarness(t, rng.Int63(), nil)
	defer ha.h.Close()
	ha.h.AttachDevice(testDevice(rng, 0xB1))

	if err := ha.h.CreateConnection(0xB1); err != nil {
		t.Fatal(err)
	}
	ha.k.RunUntil(10 * sim.TicksPerSecond)
	ev, ok := ha.last(EventConnectionComplete)
	if !ok || ev.Status != StatusOK || ev.Addr != 0xB1 {
		t.Fatalf("connection event = %+v, %v", ev, ok)
	}
	if !ha.h.Connected(0xB1) || ha.h.NumConnections() != 1 {
		t.Error("link not registered")
	}
	if err := ha.h.CreateConnection(0xB1); !errors.Is(err, ErrConnected) {
		t.Errorf("reconnect error = %v", err)
	}
	if err := ha.h.Disconnect(0xB1); err != nil {
		t.Fatal(err)
	}
	if ha.h.Connected(0xB1) {
		t.Error("still connected after Disconnect")
	}
	if ev, ok := ha.last(EventDisconnectionComplete); !ok || ev.Status != StatusOK {
		t.Errorf("disconnection event = %+v, %v", ev, ok)
	}
	if err := ha.h.Disconnect(0xB1); !errors.Is(err, ErrNotConnected) {
		t.Errorf("double disconnect error = %v", err)
	}
}

func TestCreateConnectionUnknownDevice(t *testing.T) {
	ha := newHarness(t, 7, nil)
	defer ha.h.Close()
	if err := ha.h.CreateConnection(0xDEAD); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("error = %v", err)
	}
}

func TestCreateConnectionBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ha := newHarness(t, rng.Int63(), nil)
	defer ha.h.Close()
	ha.h.AttachDevice(testDevice(rng, 0xB1))
	ha.h.AttachDevice(testDevice(rng, 0xB2))
	if err := ha.h.CreateConnection(0xB1); err != nil {
		t.Fatal(err)
	}
	if err := ha.h.CreateConnection(0xB2); !errors.Is(err, ErrConnBusy) {
		t.Errorf("busy error = %v", err)
	}
}

func TestConnectionUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	med.Place(radio.Station{Addr: 0xB1, Pos: radio.Point{X: 99, Y: 0}})
	ha := newHarness(t, rng.Int63(), med)
	defer ha.h.Close()
	ha.h.AttachDevice(testDevice(rng, 0xB1))
	if err := ha.h.CreateConnection(0xB1); err != nil {
		t.Fatal(err)
	}
	ha.k.RunUntil(10 * sim.TicksPerSecond)
	ev, ok := ha.last(EventConnectionComplete)
	if !ok || ev.Status != StatusUnreachable {
		t.Errorf("event = %+v, %v; want unreachable", ev, ok)
	}
	if ha.h.Connected(0xB1) {
		t.Error("unreachable device connected")
	}
}

func TestSupervisionDropsLink(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	med.Place(radio.Station{Addr: 0xB1, Pos: radio.Point{X: 2, Y: 0}})
	ha := newHarness(t, rng.Int63(), med)
	defer ha.h.Close()
	ha.h.AttachDevice(testDevice(rng, 0xB1))
	if err := ha.h.CreateConnection(0xB1); err != nil {
		t.Fatal(err)
	}
	ha.k.RunUntil(10 * sim.TicksPerSecond)
	if !ha.h.Connected(0xB1) {
		t.Fatal("connection failed")
	}
	med.Move(0xB1, radio.Point{X: 99, Y: 0})
	ha.k.RunUntil(20 * sim.TicksPerSecond)
	if ha.h.Connected(0xB1) {
		t.Fatal("out-of-range link kept alive")
	}
	ev, ok := ha.last(EventDisconnectionComplete)
	if !ok || ev.Status != StatusSupervision {
		t.Errorf("event = %+v, %v; want supervision", ev, ok)
	}
}

func TestEventAndStatusStrings(t *testing.T) {
	names := map[string]string{
		EventInquiryResult.String():         "inquiry-result",
		EventInquiryComplete.String():       "inquiry-complete",
		EventConnectionComplete.String():    "connection-complete",
		EventDisconnectionComplete.String(): "disconnection-complete",
		StatusOK.String():                   "ok",
		StatusTimeout.String():              "timeout",
		StatusUnreachable.String():          "unreachable",
		StatusSupervision.String():          "supervision-timeout",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("%q != %q", got, want)
		}
	}
	if EventType(99).String() == "" || Status(99).String() == "" {
		t.Error("unknown enum names empty")
	}
}

// TestSupervisionDisconnectsInAddressOrder: links that fail supervision
// on the same tick disconnect in ascending address order, whatever order
// the controller's link table happens to iterate in.
func TestSupervisionDisconnectsInAddressOrder(t *testing.T) {
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	ha := newHarness(t, 11, med)
	defer ha.h.Close()
	// Eight open links to devices the medium does not know: every probe
	// fails, so all of them reach the miss limit on the same tick.
	for _, addr := range []baseband.BDAddr{0xB5, 0xB2, 0xB8, 0xB1, 0xB7, 0xB3, 0xB6, 0xB4} {
		ha.h.conns[addr] = &connState{}
	}
	ha.k.RunUntil(20 * sim.TicksPerSecond)
	if n := ha.h.NumConnections(); n != 0 {
		t.Fatalf("%d links survived supervision", n)
	}
	var got []baseband.BDAddr
	var at sim.Tick
	for _, e := range ha.events {
		if e.Type != EventDisconnectionComplete {
			continue
		}
		if len(got) > 0 && e.At != at {
			t.Fatalf("disconnections spread over ticks %v and %v", at, e.At)
		}
		at = e.At
		got = append(got, e.Addr)
	}
	want := []baseband.BDAddr{0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8}
	if !slices.Equal(got, want) {
		t.Errorf("disconnections = %v, want %v", got, want)
	}
}
