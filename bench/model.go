package main

import (
	"fmt"
	"io"
	"sync"
)

// The reference model: what a correct server must answer, kept in the
// simplest structures that can say so — a map from user to where the
// generator last put them, and a multiset of the events those moves
// must cause. The generator updates it as it emits deltas; the readers
// check every answer they sample and every event against it; after the
// run the recovered data directory is compared with it. It has no
// shards, no caches and one lock.

// fix is one position of a user: the room and the unique tick of the
// delta that put them there.
type fix struct {
	room int
	at   int64
}

// delta is one generated presence change.
type delta struct {
	user int
	room int
	at   int64
}

// evKey identifies one expected event: which subscription (one per
// watched room), which edge, whose device, caused by which delta.
type evKey struct {
	room  int
	enter bool
	user  int
	at    int64
}

// evState is an expected event's life: when its delta's frame was due
// (0 outside a fixed-rate phase, where event latency is not measured)
// and whether it has been seen.
type evState struct {
	due  int64
	seen bool
}

// failure kinds, in the order they are reported.
const (
	failTransport = iota // connection errors and operations never answered
	failError            // "error" answers
	failAnswer           // answers that disagree with the model
	failEventMissing
	failEventDuplicate
	failEventUnknown
	failEventOrder
	failAck
	failLate // answered or delivered later than 1 s after due
	failRecovered
	failKinds
)

var failNames = [failKinds]string{
	"transport", "error-answer", "wrong-answer", "event-missing",
	"event-duplicate", "event-unexpected", "event-out-of-order",
	"ack", "later-than-1s", "recovered-state",
}

// maxListed bounds how many disagreements of one kind are spelled out
// on stderr; the counts are always complete.
const maxListed = 10

type model struct {
	mu sync.Mutex

	hist       map[int][]fix // per placed user, oldest first; the last entry is current
	subscribed map[int]bool  // watched rooms
	expect     map[evKey]*evState
	lastEvent  map[int]int64 // per user: tick of the newest event seen
	inflight   map[uint64][]delta
	ackedAt    map[int]int64 // per user: tick of the newest acknowledged delta
	acked      map[uint64]bool

	attempted int64
	failed    [failKinds]int64
	listed    [failKinds]int
	log       io.Writer
}

func newModel(log io.Writer) *model {
	return &model{
		hist:       make(map[int][]fix),
		subscribed: make(map[int]bool),
		expect:     make(map[evKey]*evState),
		lastEvent:  make(map[int]int64),
		inflight:   make(map[uint64][]delta),
		ackedAt:    make(map[int]int64),
		acked:      make(map[uint64]bool),
		log:        log,
	}
}

// fail counts one disagreement of the given kind and lists it.
func (m *model) fail(kind int, format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(kind, format, args...)
}

// failN counts n disagreements of one kind under one listing.
func (m *model) failN(kind int, n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(kind, format, args...)
	m.failed[kind] += n - 1
}

func (m *model) failLocked(kind int, format string, args ...any) {
	m.failed[kind]++
	if m.listed[kind] < maxListed {
		m.listed[kind]++
		fmt.Fprintf(m.log, "oracle: %s: %s\n", failNames[kind], fmt.Sprintf(format, args...))
	}
}

// attempt counts n operations whose outcome the oracle will judge.
func (m *model) attempt(n int64) {
	m.mu.Lock()
	m.attempted += n
	m.mu.Unlock()
}

// totals returns operations attempted and failed.
func (m *model) totals() (attempted, failed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.failed {
		failed += n
	}
	return m.attempted, failed
}

// place records a user's position without expecting events: the set-up
// placement, made before any subscription exists.
func (m *model) place(user, room int, at int64) {
	m.mu.Lock()
	m.hist[user] = append(m.hist[user], fix{room, at})
	m.ackedAt[user] = at
	m.mu.Unlock()
}

// current is the room the generator last put the user in.
func (m *model) current(user int) (fix, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hist[user]
	if len(h) == 0 {
		return fix{}, false
	}
	return h[len(h)-1], true
}

// emit records one frame the generator is about to send: every delta
// moves its user, and a move out of or into a watched room must produce
// exactly one event on that room's subscription. due is the frame's due
// time in a fixed-rate phase, else 0.
func (m *model) emit(frameSeq uint64, deltas []delta, due int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted += int64(len(deltas))
	m.inflight[frameSeq] = append([]delta(nil), deltas...)
	for _, d := range deltas {
		h := m.hist[d.user]
		if n := len(h); n > 0 && m.subscribed[h[n-1].room] {
			m.expect[evKey{h[n-1].room, false, d.user, d.at}] = &evState{due: due}
			m.attempted++
		}
		if m.subscribed[d.room] {
			m.expect[evKey{d.room, true, d.user, d.at}] = &evState{due: due}
			m.attempted++
		}
		m.hist[d.user] = append(h, fix{d.room, d.at})
	}
}

// ack checks one frame acknowledgement: it must name its own frame as
// the cumulative ack (each frame is applied exactly once, in order),
// apply every delta, reject none, and arrive once.
func (m *model) ack(frameSeq, acked uint64, applied, rejected int, duplicate bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	deltas, ok := m.inflight[frameSeq]
	switch {
	case m.acked[frameSeq]:
		m.failLocked(failAck, "frame %d acknowledged twice", frameSeq)
		return
	case !ok:
		m.failLocked(failAck, "ack for frame %d, which was never sent", frameSeq)
		return
	case acked != frameSeq || duplicate || rejected != 0 || applied != len(deltas):
		m.failLocked(failAck, "frame %d of %d deltas: acked=%d applied=%d rejected=%d duplicate=%v",
			frameSeq, len(deltas), acked, applied, rejected, duplicate)
	}
	m.acked[frameSeq] = true
	delete(m.inflight, frameSeq)
	// Acks of neighbouring frames may overtake each other on the wire.
	for _, d := range deltas {
		m.ackedAt[d.user] = max(m.ackedAt[d.user], d.at)
	}
}

// freshness is the oldest tick a locate of user sent now may still
// answer with: the newest delta of theirs the server has acknowledged.
func (m *model) freshness(user int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ackedAt[user]
}

// checkLocate judges a locate answer: the (room, tick) pair must be a
// position the generator gave the user, no older than minAt.
func (m *model) checkLocate(user, room int, at, minAt int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hist[user]
	for i := len(h) - 1; i >= 0 && h[i].at >= minAt; i-- {
		if h[i].at == at && h[i].room == room {
			return
		}
	}
	m.failLocked(failAnswer, "locate user%d = room %d at tick %d; model has %v (not older than tick %d)",
		user, room, at, h[max(0, len(h)-3):], minAt)
}

// event judges one pushed event, read at t, and returns its latency
// from its delta's due time (ok only for deltas of a fixed-rate phase).
func (m *model) event(room int, enter bool, user int, at, t int64) (latency int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := evKey{room, enter, user, at}
	st := m.expect[k]
	switch {
	case st == nil:
		m.failLocked(failEventUnknown, "event %+v matches no delta sent", k)
		return 0, false
	case st.seen:
		m.failLocked(failEventDuplicate, "event %+v delivered twice", k)
		return 0, false
	}
	st.seen = true
	if last := m.lastEvent[user]; at < last {
		m.failLocked(failEventOrder, "event %+v after an event of tick %d for the same device", k, last)
	}
	m.lastEvent[user] = at
	if st.due == 0 {
		return 0, false
	}
	return t - st.due, true
}

// pendingEvents is how many expected events have not been seen yet.
func (m *model) pendingEvents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.expect {
		if !st.seen {
			n++
		}
	}
	return n
}

// finish closes the books after the last answer: every frame still in
// flight and every expected event not seen is a failure.
func (m *model) finish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for seq := range m.inflight {
		m.failLocked(failAck, "frame %d never acknowledged", seq)
	}
	for k, st := range m.expect {
		if !st.seen {
			m.failLocked(failEventMissing, "event %+v never delivered", k)
		}
	}
}

// checkRecovered compares the positions a reopened data directory holds
// with the model: the same users, each in their current room at the
// tick that put them there.
func (m *model) checkRecovered(got map[int]fix) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted += int64(len(m.hist))
	for user, h := range m.hist {
		want := h[len(h)-1]
		if g, ok := got[user]; !ok || g != want {
			m.failLocked(failRecovered, "user%d recovered as %+v (present=%v), model has %+v", user, g, ok, want)
		}
	}
	for user := range got {
		if _, ok := m.hist[user]; !ok {
			m.failLocked(failRecovered, "user%d recovered but never placed", user)
		}
	}
}

// summary lists the non-zero failure counts.
func (m *model) summary() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := ""
	for k, n := range m.failed {
		if n > 0 {
			s += fmt.Sprintf(" %s=%d", failNames[k], n)
		}
	}
	if s == "" {
		return " none"
	}
	return s
}
