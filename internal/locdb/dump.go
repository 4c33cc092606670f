package locdb

import (
	"fmt"
	"sort"

	"bips/internal/baseband"
)

// DeviceDump is one device's complete stored state, the unit of the
// snapshot format written by internal/storage. Present distinguishes a
// device with a current fix from one that only has history left (it was
// reported absent but its past runs are still queryable).
type DeviceDump struct {
	Device  baseband.BDAddr `json:"device"`
	Present bool            `json:"present"`
	// Current is the device's current fix; meaningful only when Present.
	Current Fix `json:"current,omitempty"`
	// History is the recorded movement history, oldest first.
	History []Fix `json:"history,omitempty"`
}

// Dump captures the state of every device with a current fix or recorded
// history, in ascending device order. Each shard is dumped under its read
// lock, so the cut is per-shard consistent (the same consistency every
// cross-shard view of this database provides); a quiesced database dumps
// an exact global cut.
func (db *DB) Dump() []DeviceDump {
	var out []DeviceDump
	for _, sh := range db.shards {
		sh.mu.RLock()
		out = append(out, dumpShardLocked(sh)...)
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// SortDumps orders device dumps the way Dump does, for callers that
// assemble a dump shard by shard (CheckpointShard).
func SortDumps(dumps []DeviceDump) {
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].Device < dumps[j].Device })
}

// dumpShardLocked builds one shard's device dumps. Caller holds the
// shard lock (read or write).
func dumpShardLocked(sh *shard) []DeviceDump {
	seen := make(map[baseband.BDAddr]bool, len(sh.current))
	for dev := range sh.current {
		seen[dev] = true
	}
	for _, dev := range sh.hist.Devices() {
		seen[dev] = true
	}
	out := make([]DeviceDump, 0, len(seen))
	for dev := range seen {
		d := DeviceDump{Device: dev}
		if fix, ok := sh.current[dev]; ok {
			d.Present = true
			d.Current = fix
		}
		for _, v := range sh.hist.Visits(dev) {
			d.History = append(d.History, Fix{Device: dev, Piconet: v.Piconet, At: v.At})
		}
		out = append(out, d)
	}
	return out
}

// Restore loads dumped device states into the database, bypassing the
// delta semantics: history entries are installed verbatim (subject to
// this database's own history limit) and the current fix, when present,
// is placed without generating events. It is meant for recovery into a
// freshly created database; restoring a device that already has state
// fails.
func (db *DB) Restore(dumps []DeviceDump) error {
	for _, d := range dumps {
		sh := db.shardOf(d.Device)
		sh.mu.Lock()
		if _, dup := sh.current[d.Device]; dup || sh.hist.Len(d.Device) > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("locdb: restore: device %v already has state", d.Device)
		}
		for _, f := range d.History {
			sh.hist.Append(d.Device, f.Piconet, f.At)
		}
		if d.Present {
			fix := d.Current
			fix.Device = d.Device
			sh.current[d.Device] = fix
		}
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	return nil
}
