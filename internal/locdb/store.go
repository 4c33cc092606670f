package locdb

import (
	"bips/internal/baseband"
	"bips/internal/sim"
)

// Store is the pluggable storage engine behind the BIPS location
// service. The in-memory sharded DB of this package is the canonical
// implementation; internal/storage wraps it with a durable write-ahead
// log plus snapshots so a central server can restart without losing
// presence state or history. The serving layer (internal/server) and the
// simulator core both program against this interface, never against a
// concrete backend.
//
// Every presence delta — from a station, the simulator or WAL replay —
// enters through ApplyBatch, which reports how many mutations changed
// state: the delta protocol makes re-reported presences cheap no-ops,
// and a durable backend uses the report to keep the WAL an exact delta
// stream instead of logging every redundant workstation report.
type Store interface {
	// ApplyBatch applies a validated batch of presence/absence
	// mutations with one lock acquisition per touched shard, returning
	// how many changed state. A journaling backend group-commits the
	// whole batch as one coalesced WAL write.
	ApplyBatch(muts []Mutation) int
	// Drop removes every trace of the device (logout).
	Drop(dev baseband.BDAddr) bool

	// Locate returns the device's current fix.
	Locate(dev baseband.BDAddr) (Fix, error)
	// LocateAt returns the fix whose presence run covers tick at.
	LocateAt(dev baseband.BDAddr, at sim.Tick) (Fix, error)
	// Trajectory returns the fixes whose runs overlap [from, to],
	// oldest first.
	Trajectory(dev baseband.BDAddr, from, to sim.Tick) []Fix
	// All returns every current fix, in ascending device order. The
	// returned slice is a shared immutable snapshot: callers must not
	// modify it.
	All() []Fix
	// Dump returns every device's full state (current fix plus recorded
	// history), ascending by device. It is the seed for derived indexes
	// (the analytics engine rebuilds its hot interval store from it) and
	// the snapshot source for durable backends.
	Dump() []DeviceDump
	// HistoryLimit reports the per-device history bound, so derived
	// indexes can mirror the same eviction policy.
	HistoryLimit() int

	// Stats returns the activity counters.
	Stats() Stats
	// NumShards reports the backend's shard count.
	NumShards() int
	// SubscribeSink registers a consumer of the delta stream, one
	// OnEvents call per frame (see Sink for the delivery contract); the
	// returned function unsubscribes.
	SubscribeSink(s Sink) (cancel func())

	// Close releases backend resources (files, goroutines). The
	// in-memory backend's Close is a no-op.
	Close() error
}

// DB implements Store.
var _ Store = (*DB)(nil)
