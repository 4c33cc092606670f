// Package baseband models the parts of the Bluetooth 1.1 baseband that
// govern device discovery and connection setup: device addresses, the
// native clock, the inquiry/page timing constants, and the inquiry hopping
// structure (the 32 dedicated inquiry frequencies split into trains A and
// B).
//
// The model is timing-faithful rather than RF-faithful: the real
// hop-selection kernel decides *which* of the 32 frequencies is used at a
// given clock value, but discovery latency — the quantity the BIPS paper
// measures — depends only on *when* a master transmission can coincide with
// a slave scan window on the same index. See DESIGN.md section 5.
package baseband

import (
	"fmt"

	"bips/internal/sim"
)

// BDAddr is a 48-bit Bluetooth device address.
type BDAddr uint64

// ParseBDAddr parses the canonical colon form "AA:BB:CC:DD:EE:FF"
// (hex digits in either case). It is on the ingest hot path — every
// workstation delta carries an address — so it scans the string in
// place instead of splitting it.
func ParseBDAddr(s string) (BDAddr, error) {
	if len(s) != 17 {
		return 0, fmt.Errorf("baseband: address %q: want 6 octets", s)
	}
	var v uint64
	for i := 0; i < 6; i++ {
		if i > 0 && s[i*3-1] != ':' {
			return 0, fmt.Errorf("baseband: address %q: want 6 octets", s)
		}
		hi := unhex(s[i*3])
		lo := unhex(s[i*3+1])
		if hi < 0 || lo < 0 {
			return 0, fmt.Errorf("baseband: address %q: octet %q malformed", s, s[i*3:i*3+2])
		}
		v = v<<8 | uint64(hi)<<4 | uint64(lo)
	}
	return BDAddr(v), nil
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// String renders the address in canonical colon form. One allocation:
// the returned string.
func (a BDAddr) String() string {
	const hexUpper = "0123456789ABCDEF"
	var b [17]byte
	for i := 0; i < 6; i++ {
		if i > 0 {
			b[i*3-1] = ':'
		}
		o := byte(a >> uint(40-8*i))
		b[i*3] = hexUpper[o>>4]
		b[i*3+1] = hexUpper[o&0xF]
	}
	return string(b[:])
}

// Valid reports whether the address fits in 48 bits and is non-zero.
func (a BDAddr) Valid() bool {
	return a != 0 && a>>48 == 0
}

// Timing constants from the Bluetooth 1.1 specification, as cited by the
// paper (sections 3.1 and 3.2), expressed in sim ticks (312.5 us).
const (
	// SlotTicks is one 625 us slot.
	SlotTicks sim.Tick = 2
	// TrainLengthTicks is one 10 ms inquiry train: 16 frequencies sent
	// at two per even slot, interleaved with listen slots.
	TrainLengthTicks sim.Tick = 32
	// NInquiry is the minimum number of repetitions of a train before
	// the master may switch trains.
	NInquiry = 256
	// TrainDwellTicks is the time spent on one train before switching:
	// NInquiry * TrainLengthTicks = 2.56 s.
	TrainDwellTicks = sim.Tick(NInquiry) * TrainLengthTicks
	// InquiryTimeoutTicks is the canonical 10.24 s inquiry duration
	// (at least three train switches).
	InquiryTimeoutTicks = 4 * TrainDwellTicks
	// TInquiryScanTicks is the default interval between the starts of
	// two consecutive inquiry-scan windows: 1.28 s.
	TInquiryScanTicks sim.Tick = 4096
	// TwInquiryScanTicks is the default inquiry-scan window: 11.25 ms.
	TwInquiryScanTicks sim.Tick = 36
	// TPageScanTicks is the default page-scan interval (equal to the
	// inquiry-scan default, per the paper).
	TPageScanTicks sim.Tick = 4096
	// TwPageScanTicks is the default page-scan window.
	TwPageScanTicks sim.Tick = 36
	// ScanFreqDwellTicks is how long a scanning slave listens on the
	// same inquiry frequency index before advancing: 1.28 s.
	ScanFreqDwellTicks sim.Tick = 4096
	// MaxBackoffSlots is the upper bound (exclusive) of the uniform
	// random inquiry-response backoff, in slots: 0..1023.
	MaxBackoffSlots = 1024
	// NumInquiryFreqs is the number of dedicated inquiry frequencies.
	NumInquiryFreqs = 32
	// TrainSize is the number of frequencies per train.
	TrainSize = 16
)

// Train identifies one of the two 16-hop halves of the inquiry sequence.
type Train int

// The two inquiry trains.
const (
	TrainA Train = iota + 1
	TrainB
)

// String names the train.
func (t Train) String() string {
	switch t {
	case TrainA:
		return "A"
	case TrainB:
		return "B"
	default:
		return fmt.Sprintf("Train(%d)", int(t))
	}
}

// Other returns the opposite train.
func (t Train) Other() Train {
	if t == TrainA {
		return TrainB
	}
	return TrainA
}

// FreqIndex is an index into the 32 dedicated inquiry frequencies.
// Indices 0..15 belong to train A, 16..31 to train B.
type FreqIndex int

// Valid reports whether the index is within the inquiry hop set.
func (f FreqIndex) Valid() bool { return f >= 0 && f < NumInquiryFreqs }

// Train returns the train the frequency belongs to.
func (f FreqIndex) Train() Train {
	if f < TrainSize {
		return TrainA
	}
	return TrainB
}

// Clock is a Bluetooth native clock: a free-running 28-bit counter ticking
// once per 312.5 us. Devices have independent phases.
type Clock struct {
	// Offset is the value of the counter at simulation tick zero.
	Offset sim.Tick
}

// At returns the (wrapped) native clock value at the given simulation time.
func (c Clock) At(now sim.Tick) sim.Tick {
	const wrap = 1 << 28
	v := (c.Offset + now) % wrap
	if v < 0 {
		v += wrap
	}
	return v
}

// CurrentTrain returns the train a master transmits at the given time
// elapsed since it entered the inquiry state: it repeats the starting train
// NInquiry times (2.56 s) and then alternates.
func CurrentTrain(elapsed sim.Tick, startTrain Train) Train {
	dwell := elapsed / TrainDwellTicks
	if dwell%2 == 1 {
		return startTrain.Other()
	}
	return startTrain
}

// TrainFreqPair returns the two frequency indices of the given train that a
// master transmits during the even slot containing the given elapsed time
// (one frequency per half slot). A 10 ms train pass has 8 transmit slots
// covering the train's 16 frequencies in order.
func TrainFreqPair(train Train, elapsed sim.Tick) (first, second FreqIndex) {
	base := FreqIndex(0)
	if train == TrainB {
		base = TrainSize
	}
	inTrain := elapsed % TrainLengthTicks
	slot := inTrain / SlotTicks // 0..15
	// Even slots transmit, odd slots listen; transmit slot n of the
	// pass (n = slot/2, 0..7) carries frequency pair n.
	pair := slot / 2
	return base + FreqIndex(2*pair), base + FreqIndex(2*pair+1)
}

// ScanFreq returns the inquiry frequency index a scanning slave listens on
// at the given native clock value. The listening frequency advances one
// index every ScanFreqDwellTicks (1.28 s), wrapping over all 32 inquiry
// frequencies; phase is the device-specific starting index.
func ScanFreq(clock sim.Tick, phase FreqIndex) FreqIndex {
	step := (clock / ScanFreqDwellTicks) % NumInquiryFreqs
	return FreqIndex((sim.Tick(phase) + step) % NumInquiryFreqs)
}

// RespondFreq returns the frequency index on which the master listens for
// the inquiry response to an ID sent on f. In the real baseband the
// response arrives 625 us after the ID on the corresponding response hop;
// the timing, not the index mapping, is what matters here, so the model
// uses the same index.
func RespondFreq(f FreqIndex) FreqIndex { return f }
