// Package loadgen holds the naming contract for synthetic users: what
// `bips-server -loadgen-users N` registers is what the benchmark harness
// (bench/) logs in and moves around.
package loadgen

import (
	"fmt"

	"bips/internal/baseband"
)

// UserName returns the i-th synthetic user id.
func UserName(i int) string { return fmt.Sprintf("user%d", i) }

// UserDevice returns the i-th synthetic user's device address.
func UserDevice(i int) baseband.BDAddr {
	return baseband.BDAddr(0xE000_0000_0000 + uint64(i+1))
}
