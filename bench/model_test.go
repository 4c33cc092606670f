package main

import (
	"bytes"
	"strings"
	"testing"
)

// failedKinds renders the model's failure counts for comparison.
func failedKinds(m *model) string { return strings.TrimSpace(m.summary()) }

func TestModelAcceptsACorrectRun(t *testing.T) {
	var log bytes.Buffer
	m := newModel(&log)
	m.place(1, 10, 2)
	m.place(2, 20, 3)
	m.subscribed[10] = true
	m.subscribed[30] = true

	// user1 leaves watched room 10 for watched room 30; user2 moves
	// between unwatched rooms: two events expected, both for user1.
	frame := []delta{{user: 1, room: 30, at: 100}, {user: 2, room: 21, at: 101}}
	m.emit(1, frame, 5000)
	if n := m.pendingEvents(); n != 2 {
		t.Fatalf("%d events pending, want 2", n)
	}
	if lat, ok := m.event(10, false, 1, 100, 5400); !ok || lat != 400 {
		t.Errorf("leave latency = %d, %v; want 400 from the frame's due time", lat, ok)
	}
	if _, ok := m.event(30, true, 1, 100, 5500); !ok {
		t.Error("enter not accepted")
	}
	m.ack(1, 1, 2, 0, false)

	// Before the ack a locate may still see the old position; after it,
	// only the new one.
	m.checkLocate(1, 30, 100, m.freshness(1))
	m.checkLocate(2, 21, 101, 0)
	m.checkRecovered(map[int]fix{1: {30, 100}, 2: {21, 101}})
	m.finish()
	if got := failedKinds(m); got != "none" {
		t.Errorf("failures on a correct run: %s\n%s", got, log.String())
	}
	if att, failed := m.totals(); att != 2+2+2 || failed != 0 {
		t.Errorf("attempted %d failed %d, want 6 (two deltas, two events, two recovered users) and 0", att, failed)
	}
}

func TestModelCatchesEachKindOfDisagreement(t *testing.T) {
	// Every case starts from user1 placed in room 5 and one frame sent
	// that moves them into watched room 10. seen and acked are the
	// correct continuations; each case leaves one out or adds a wrong one.
	seen := func(m *model) { m.event(10, true, 1, 100, 1) }
	acked := func(m *model) { m.ack(1, 1, 1, 0, false) }
	cases := []struct {
		name string
		do   func(m *model)
		want string
	}{
		{"missing event", func(m *model) { acked(m) }, "event-missing=1"},
		{"duplicate event", func(m *model) { seen(m); seen(m); acked(m) }, "event-duplicate=1"},
		{"event nobody caused", func(m *model) {
			seen(m)
			acked(m)
			m.event(10, false, 2, 555, 2)
		}, "event-unexpected=1"},
		{"events of one device out of order", func(m *model) {
			m.emit(2, []delta{{user: 1, room: 11, at: 200}}, 0) // leaves 10 again
			m.event(10, false, 1, 200, 1)
			seen(m)
			acked(m)
			m.ack(2, 2, 1, 0, false)
		}, "event-out-of-order=1"},
		{"ack that skipped a delta", func(m *model) { seen(m); m.ack(1, 1, 0, 1, false) }, "ack=1"},
		{"ack twice", func(m *model) { seen(m); acked(m); acked(m) }, "ack=1"},
		{"ack of a frame never sent, none for the one that was", func(m *model) {
			seen(m)
			m.ack(7, 7, 1, 0, false)
		}, "ack=2"},
		{"stale locate", func(m *model) {
			seen(m)
			acked(m)
			m.checkLocate(1, 5, 2, m.freshness(1)) // the set-up position, after the move was acknowledged
		}, "wrong-answer=1"},
		{"locate of a place never visited", func(m *model) {
			seen(m)
			acked(m)
			m.checkLocate(1, 99, 100, 0)
		}, "wrong-answer=1"},
		{"recovered state differs", func(m *model) {
			seen(m)
			acked(m)
			m.checkRecovered(map[int]fix{1: {5, 2}, 9: {1, 1}})
		}, "recovered-state=2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var log bytes.Buffer
			m := newModel(&log)
			m.place(1, 5, 2)
			m.subscribed[10] = true
			m.emit(1, []delta{{user: 1, room: 10, at: 100}}, 0)
			c.do(m)
			m.finish()
			if got := failedKinds(m); got != c.want {
				t.Errorf("failures = %q, want %q\n%s", got, c.want, log.String())
			}
			if log.Len() == 0 {
				t.Error("the disagreement was counted but not listed")
			}
		})
	}
}

func TestModelListsOnlyTheFirstFewOfAKind(t *testing.T) {
	var log bytes.Buffer
	m := newModel(&log)
	m.failN(failLate, 500, "%d answers later than a second", 500)
	for i := 0; i < 50; i++ {
		m.fail(failError, "request %d", i)
	}
	if _, failed := m.totals(); failed != 550 {
		t.Errorf("failed = %d, want 550", failed)
	}
	if lines := strings.Count(log.String(), "\n"); lines != 1+maxListed {
		t.Errorf("%d lines listed, want %d", lines, 1+maxListed)
	}
}
