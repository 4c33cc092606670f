package baseband

import (
	"testing"
	"testing/quick"

	"bips/internal/sim"
)

func TestParseBDAddr(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    BDAddr
		wantErr bool
	}{
		{name: "canonical", in: "00:11:22:33:44:55", want: 0x001122334455},
		{name: "all ff", in: "FF:FF:FF:FF:FF:FF", want: 0xFFFFFFFFFFFF},
		{name: "lower case", in: "aa:bb:cc:dd:ee:ff", want: 0xAABBCCDDEEFF},
		{name: "too few octets", in: "00:11:22:33:44", wantErr: true},
		{name: "too many octets", in: "00:11:22:33:44:55:66", wantErr: true},
		{name: "bad hex", in: "00:11:22:33:44:ZZ", wantErr: true},
		{name: "octet too long", in: "001:1:22:33:44:55", wantErr: true},
		{name: "empty", in: "", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseBDAddr(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseBDAddr(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if !tt.wantErr && got != tt.want {
				t.Errorf("ParseBDAddr(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestBDAddrStringRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		a := BDAddr(raw & 0xFFFFFFFFFFFF)
		parsed, err := ParseBDAddr(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBDAddrValid(t *testing.T) {
	if BDAddr(0).Valid() {
		t.Error("zero address reported valid")
	}
	if !BDAddr(0x001122334455).Valid() {
		t.Error("normal address reported invalid")
	}
	if BDAddr(1 << 48).Valid() {
		t.Error("49-bit address reported valid")
	}
}

func TestTimingConstants(t *testing.T) {
	// The paper's section 3.1 quantities.
	if got := TrainLengthTicks.Duration().Milliseconds(); got != 10 {
		t.Errorf("train length = %dms, want 10ms", got)
	}
	if got := TrainDwellTicks.Seconds(); got != 2.56 {
		t.Errorf("train dwell = %gs, want 2.56s", got)
	}
	if got := InquiryTimeoutTicks.Seconds(); got != 10.24 {
		t.Errorf("inquiry timeout = %gs, want 10.24s", got)
	}
	if got := TInquiryScanTicks.Seconds(); got != 1.28 {
		t.Errorf("T_inquiry_scan = %gs, want 1.28s", got)
	}
	if got := TwInquiryScanTicks.Duration().Microseconds(); got != 11250 {
		t.Errorf("T_w_inquiry_scan = %dus, want 11250us", got)
	}
	if TPageScanTicks != TInquiryScanTicks || TwPageScanTicks != TwInquiryScanTicks {
		t.Error("page scan defaults must equal inquiry scan defaults (paper 3.2)")
	}
}

func TestTrain(t *testing.T) {
	if TrainA.Other() != TrainB || TrainB.Other() != TrainA {
		t.Error("Train.Other is not an involution")
	}
	if TrainA.String() != "A" || TrainB.String() != "B" {
		t.Errorf("train names = %q, %q", TrainA.String(), TrainB.String())
	}
}

func TestFreqIndexTrain(t *testing.T) {
	for f := FreqIndex(0); f < TrainSize; f++ {
		if f.Train() != TrainA {
			t.Errorf("freq %d train = %v, want A", f, f.Train())
		}
	}
	for f := FreqIndex(TrainSize); f < NumInquiryFreqs; f++ {
		if f.Train() != TrainB {
			t.Errorf("freq %d train = %v, want B", f, f.Train())
		}
	}
	if FreqIndex(-1).Valid() || FreqIndex(32).Valid() {
		t.Error("out-of-range index reported valid")
	}
}

func TestMasterInquiryFreqsCoversTrainIn10ms(t *testing.T) {
	// The master transmits in every other slot (one pair of IDs per
	// transmit slot), as inquiry.Master.transmit steps through a phase.
	seen := map[FreqIndex]bool{}
	for elapsed := sim.Tick(0); elapsed < TrainLengthTicks; elapsed += 2 * SlotTicks {
		train := CurrentTrain(elapsed, TrainA)
		if train != TrainA {
			t.Fatalf("train switched inside first dwell: %v", train)
		}
		f1, f2 := TrainFreqPair(train, elapsed)
		seen[f1] = true
		seen[f2] = true
	}
	if len(seen) != TrainSize {
		t.Fatalf("one 10ms pass covered %d distinct freqs, want %d", len(seen), TrainSize)
	}
	for f := range seen {
		if f.Train() != TrainA {
			t.Errorf("freq %d outside train A", f)
		}
	}
}

func TestMasterInquiryTrainSwitchEvery256Repetitions(t *testing.T) {
	if train0 := CurrentTrain(0, TrainA); train0 != TrainA {
		t.Fatalf("initial train = %v, want A", train0)
	}
	if trainLast := CurrentTrain(TrainDwellTicks-1, TrainA); trainLast != TrainA {
		t.Errorf("train at end of first dwell = %v, want A", trainLast)
	}
	if trainNext := CurrentTrain(TrainDwellTicks, TrainA); trainNext != TrainB {
		t.Errorf("train after first dwell = %v, want B", trainNext)
	}
	if trainThird := CurrentTrain(2*TrainDwellTicks, TrainA); trainThird != TrainA {
		t.Errorf("train after second dwell = %v, want A", trainThird)
	}
	if trainFourth := CurrentTrain(3*TrainDwellTicks, TrainA); trainFourth != TrainB {
		t.Errorf("train after third dwell = %v, want B", trainFourth)
	}
	// Starting on B mirrors the schedule.
	if b0 := CurrentTrain(0, TrainB); b0 != TrainB {
		t.Errorf("startTrain=B initial train = %v, want B", b0)
	}
}

func TestMasterFreqPairsDistinctPerHalfSlot(t *testing.T) {
	f := func(rawClock uint32, startB bool) bool {
		clock := sim.Tick(rawClock)
		start := TrainA
		if startB {
			start = TrainB
		}
		train := CurrentTrain(clock, start)
		f1, f2 := TrainFreqPair(train, clock)
		return f1.Valid() && f2.Valid() && f2 == f1+1 &&
			f1.Train() == train && f2.Train() == train
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanFreqAdvancesEvery128s(t *testing.T) {
	phase := FreqIndex(5)
	if got := ScanFreq(0, phase); got != 5 {
		t.Errorf("ScanFreq(0) = %d, want 5", got)
	}
	if got := ScanFreq(ScanFreqDwellTicks-1, phase); got != 5 {
		t.Errorf("ScanFreq(dwell-1) = %d, want 5", got)
	}
	if got := ScanFreq(ScanFreqDwellTicks, phase); got != 6 {
		t.Errorf("ScanFreq(dwell) = %d, want 6", got)
	}
	// Wraps over the full 32-frequency set.
	if got := ScanFreq(ScanFreqDwellTicks*27, phase); got != 0 {
		t.Errorf("ScanFreq(27 dwells from 5) = %d, want 0 (wrap)", got)
	}
}

func TestScanFreqAlwaysValid(t *testing.T) {
	f := func(rawClock uint32, rawPhase uint8) bool {
		return ScanFreq(sim.Tick(rawClock), FreqIndex(rawPhase%32)).Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockAt(t *testing.T) {
	c := Clock{Offset: 100}
	if got := c.At(50); got != 150 {
		t.Errorf("At(50) = %d, want 150", got)
	}
	// 28-bit wraparound.
	c = Clock{Offset: (1 << 28) - 1}
	if got := c.At(1); got != 0 {
		t.Errorf("wrap: At(1) = %d, want 0", got)
	}
}
