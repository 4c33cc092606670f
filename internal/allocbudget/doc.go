// Package allocbudget pins per-operation allocation ceilings for the
// serving hot paths: request dispatch, the pipelined connection round
// trip, the batched write path, ingest frame apply, fan-out event push,
// and the cached full snapshot, and for the simulator's Table 1
// discovery trial. The budgets live in one table in the
// test file; CI runs the suite as a required job, so a change that
// regresses a hot path's allocation count fails the build instead of
// quietly eroding the zero-alloc work. Under the race detector the
// paths are still exercised but the numeric ceilings are not asserted —
// race instrumentation adds allocations of its own.
package allocbudget
