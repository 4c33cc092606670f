package server

import (
	"bips/internal/locdb"
	"bips/internal/wire"
)

// SetBeforeHandle installs the test-only dispatch hook. It runs in the
// handler goroutine before the request executes, so a test can stall
// chosen message types and observe out-of-order completion.
func (s *Server) SetBeforeHandle(fn func(wire.MsgType)) { s.beforeHandle = fn }

// ReportDelta applies one workstation delta the way the wire presence
// message does — business validation, then a one-mutation ApplyBatch —
// so tests can set up location state without a connection.
func (s *Server) ReportDelta(p wire.Presence) error {
	m, track, err := s.resolveDelta(p)
	if err != nil || !track {
		return err
	}
	s.db.ApplyBatch([]locdb.Mutation{m})
	return nil
}
