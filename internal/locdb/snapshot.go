package locdb

import "sort"

// Cached merged snapshot.
//
// All() used to re-merge every shard on every call: with a few thousand
// devices that is tens of kilobytes of garbage per status poll, and the
// wire snapshot endpoints poll constantly. The cache below makes the
// quiescent case free and the changed case pay-once:
//
//   - Each shard already maintains a version counter bumped under its
//     write lock. A merged snapshot records the version vector it was
//     built from; the cache is valid exactly while every shard still
//     reports that version. Checking is len(shards) atomic loads.
//   - On mismatch, one caller (serialized by allMu) copies every shard's
//     current fixes, reading the shard's version under the same read
//     lock, and publishes the sorted result. Concurrent callers that
//     lose the race reuse the fresh build.
//
// Snapshots are immutable once published and shared between callers:
// the fixes slice of All must not be modified by the recipient.

// allSnap is one published merged snapshot: the device-sorted fixes and
// the per-shard version vector they were built from.
type allSnap struct {
	vers  []uint64
	fixes []Fix
}

// upToDate reports whether s still reflects every shard's current
// version. Lock-free: one atomic load per shard.
func (db *DB) upToDate(s *allSnap) bool {
	for i := range db.shards {
		if db.shards[i].version.Load() != s.vers[i] {
			return false
		}
	}
	return true
}

// allSnapshot returns the current merged snapshot, rebuilding it only
// if some shard changed since the last build.
func (db *DB) allSnapshot() *allSnap {
	if s := db.allCur.Load(); s != nil && db.upToDate(s) {
		return s
	}
	return db.rebuildAll()
}

// rebuildAll re-merges the shards and publishes the result. allMu
// serializes rebuilds so a burst of snapshot queries after one mutation
// pays for a single merge.
func (db *DB) rebuildAll() *allSnap {
	db.allMu.Lock()
	defer db.allMu.Unlock()
	// A concurrent caller may have rebuilt while we waited for the lock.
	if s := db.allCur.Load(); s != nil && db.upToDate(s) {
		return s
	}
	vers := make([]uint64, len(db.shards))
	var fixes []Fix
	for i, sh := range db.shards {
		sh.mu.RLock()
		// Mutators bump the version while holding mu, so the version
		// read here is the one the copied fixes belong to.
		vers[i] = sh.version.Load()
		for _, f := range sh.current {
			fixes = append(fixes, f)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(fixes, func(i, j int) bool { return fixes[i].Device < fixes[j].Device })
	s := &allSnap{vers: vers, fixes: fixes}
	db.allCur.Store(s)
	return s
}
