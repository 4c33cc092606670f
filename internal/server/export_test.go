package server

import (
	"fmt"

	"bips/internal/locdb"
	"bips/internal/wire"
)

// SetBeforeHandle installs the test-only dispatch hook. It runs in the
// handler goroutine before the request executes, so a test can stall
// chosen message types and observe out-of-order completion.
func (s *Server) SetBeforeHandle(fn func(wire.MsgType)) { s.beforeHandle = fn }

// ReportDelta applies one workstation delta the way the ingest pipeline
// applies each delta of a presence.batch frame — business validation,
// then a one-mutation ApplyBatch — so tests can set up location state
// without a connection. An invalid delta is an error here, where a frame
// would count it as rejected.
func (s *Server) ReportDelta(p wire.Presence) error {
	m, track, err := s.resolveDelta(p)
	if err != nil || !track {
		return err
	}
	s.db.ApplyBatch([]locdb.Mutation{m})
	return nil
}

// StationReport sends one presence delta over c the way a station does:
// an ingest.hello resumes the device's own session and returns its ack,
// then a one-delta presence.batch follows at the next frame sequence
// number. One session per device keeps connections that report
// different devices from racing on one sequence. A rejected delta is an
// error, like a failed call.
func StationReport(c *wire.Client, p wire.Presence) error {
	session := "station-" + p.Device
	var ack wire.IngestAck
	if err := c.Call(wire.MsgIngestHello, wire.IngestHello{Session: session, Station: session, Room: 1}, &ack); err != nil {
		return fmt.Errorf("ingest.hello: %w", err)
	}
	frame := wire.PresenceBatch{Session: session, Seq: ack.Acked + 1, Deltas: []wire.Presence{p}}
	if err := c.Call(wire.MsgPresenceBatch, frame, &ack); err != nil {
		return fmt.Errorf("presence.batch: %w", err)
	}
	if ack.Duplicate || ack.Rejected > 0 {
		return fmt.Errorf("presence.batch: ack %+v", ack)
	}
	return nil
}
