package workstation

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bips/internal/baseband"
	"bips/internal/hci"
	"bips/internal/inquiry"
	"bips/internal/page"
	"bips/internal/radio"
	"bips/internal/sim"
	"bips/internal/wire"
)

// recorder records every frame a workstation reports, and the deltas
// they carry, in order.
type recorder struct {
	batches [][]wire.Presence
	reports []wire.Presence
	fail    bool
}

func (r *recorder) ReportBatch(deltas []wire.Presence) error {
	if r.fail {
		return errors.New("recorder: injected failure")
	}
	r.batches = append(r.batches, deltas)
	r.reports = append(r.reports, deltas...)
	return nil
}

func testDevice(rng *rand.Rand, addr baseband.BDAddr) hci.Device {
	offset := sim.Tick(rng.Int63n(int64(2 * baseband.TInquiryScanTicks)))
	return hci.Device{
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

func TestPaperCycle(t *testing.T) {
	c := PaperCycle()
	if got := c.Inquiry.Seconds(); math.Abs(got-3.84) > 1e-9 {
		t.Errorf("inquiry slot = %v, want 3.84s", got)
	}
	if got := c.Period.Seconds(); math.Abs(got-15.3846) > 0.01 {
		t.Errorf("period = %v, want ~15.4s", got)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	k := sim.NewKernel(1)
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	if _, err := New(k, ctrl, Config{Room: 1}, nil); err == nil {
		t.Error("nil reporter accepted")
	}
	if _, err := New(k, ctrl, Config{
		Room:  1,
		Cycle: inquiry.DutyCycle{Inquiry: 10, Period: 5},
	}, &recorder{}); err == nil {
		t.Error("invalid cycle accepted")
	}
}

func TestTrackAndReportPresence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := sim.NewKernel(rng.Int63())
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	rec := &recorder{}
	ws, err := New(k, ctrl, Config{Room: 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AttachDevice(testDevice(rng, 0xB1))
	ws.Start()
	k.RunUntil(90 * sim.TicksPerSecond)
	ws.Stop()

	if len(rec.reports) != 1 {
		t.Fatalf("reports = %+v, want one presence", rec.reports)
	}
	p := rec.reports[0]
	if !p.Present || p.Room != 4 || p.Device != wire.FormatAddr(0xB1) {
		t.Errorf("report = %+v", p)
	}
	got := ws.Present()
	if len(got) != 1 || got[0] != 0xB1 {
		t.Errorf("Present = %v", got)
	}
	st := ws.Stats()
	if st.Cycles == 0 || st.Discoveries == 0 || st.Enrollments != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDepartureReportsAbsence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k := sim.NewKernel(rng.Int63())
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	med.Place(radio.Station{Addr: 0xB1, Pos: radio.Point{X: 3, Y: 0}})
	ctrl := hci.New(k, hci.Config{Addr: 1}, med)
	defer ctrl.Close()
	rec := &recorder{}
	ws, err := New(k, ctrl, Config{Room: 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AttachDevice(testDevice(rng, 0xB1))
	ws.Start()
	k.RunUntil(90 * sim.TicksPerSecond)
	if len(ws.Present()) != 1 {
		t.Fatalf("device not enrolled (stats %+v)", ws.Stats())
	}
	med.Move(0xB1, radio.Point{X: 99, Y: 0})
	k.RunUntil(120 * sim.TicksPerSecond)
	ws.Stop()

	if len(ws.Present()) != 0 {
		t.Error("departed device still present")
	}
	last := rec.reports[len(rec.reports)-1]
	if last.Present {
		t.Errorf("last report = %+v, want absence", last)
	}
	if ws.Stats().Departures != 1 {
		t.Errorf("departures = %d", ws.Stats().Departures)
	}
}

func TestRediscoveryAfterDeparture(t *testing.T) {
	// A device that leaves and comes back must be re-enrolled: the
	// tracking loop of the paper.
	rng := rand.New(rand.NewSource(8))
	k := sim.NewKernel(rng.Int63())
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	med.Place(radio.Station{Addr: 0xB1, Pos: radio.Point{X: 3, Y: 0}})
	ctrl := hci.New(k, hci.Config{Addr: 1}, med)
	defer ctrl.Close()
	rec := &recorder{}
	ws, err := New(k, ctrl, Config{Room: 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AttachDevice(testDevice(rng, 0xB1))
	ws.Start()
	k.RunUntil(90 * sim.TicksPerSecond)
	if len(ws.Present()) != 1 {
		t.Fatalf("initial enrollment failed (stats %+v)", ws.Stats())
	}
	med.Move(0xB1, radio.Point{X: 99, Y: 0})
	k.RunUntil(120 * sim.TicksPerSecond)
	if len(ws.Present()) != 0 {
		t.Fatalf("device not dropped (stats %+v)", ws.Stats())
	}

	// The device comes back: a later inquiry rediscovers it and it is
	// enrolled again.
	med.Move(0xB1, radio.Point{X: 3, Y: 0})
	k.RunUntil(220 * sim.TicksPerSecond)
	ws.Stop()
	if len(ws.Present()) != 1 {
		t.Errorf("returned device not present (stats %+v)", ws.Stats())
	}
	if got := ws.Stats().Enrollments; got != 2 {
		t.Errorf("enrollments = %d, want 2", got)
	}
	if last := rec.reports[len(rec.reports)-1]; !last.Present {
		t.Errorf("last report = %+v, want presence", last)
	}
}

func TestDeltaSemanticsOneReportPerChange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := sim.NewKernel(rng.Int63())
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	rec := &recorder{}
	ws, err := New(k, ctrl, Config{Room: 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AttachDevice(testDevice(rng, 0xB1))
	ws.Start()
	// Many cycles: the stationary device must be reported exactly once
	// even though each inquiry rediscovers... (enrolled devices are not
	// re-enrolled).
	k.RunUntil(200 * sim.TicksPerSecond)
	ws.Stop()
	if len(rec.reports) != 1 {
		t.Errorf("reports = %d, want 1 (delta semantics)", len(rec.reports))
	}
}

func TestReporterFailureCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	k := sim.NewKernel(rng.Int63())
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	rec := &recorder{fail: true}
	ws, err := New(k, ctrl, Config{Room: 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AttachDevice(testDevice(rng, 0xB1))
	ws.Start()
	k.RunUntil(90 * sim.TicksPerSecond)
	ws.Stop()
	if ws.Stats().ReportErrors == 0 {
		t.Error("failed reports not counted")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	ws, err := New(k, ctrl, Config{Room: 1}, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	ws.Start()
	ws.Start()
	k.RunUntil(sim.TicksPerSecond)
	ws.Stop()
	ws.Stop()
	cycles := ws.Stats().Cycles
	k.RunUntil(60 * sim.TicksPerSecond)
	if ws.Stats().Cycles != cycles {
		t.Error("cycle ran after Stop")
	}
}

func TestMultipleDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := sim.NewKernel(rng.Int63())
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	rec := &recorder{}
	ws, err := New(k, ctrl, Config{Room: 2}, rec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		ctrl.AttachDevice(testDevice(rng, baseband.BDAddr(0xB1+i)))
	}
	ws.Start()
	k.RunUntil(150 * sim.TicksPerSecond)
	ws.Stop()
	if got := len(ws.Present()); got != n {
		t.Errorf("present = %d, want %d (stats %+v)", got, n, ws.Stats())
	}
}
