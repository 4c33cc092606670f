package server

import (
	"fmt"
	"net"
	"testing"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/sim"
	"bips/internal/wire"
)

// benchIngestSetup starts a real TCP server with devs logged-in devices
// and returns a connected v2 client. Cleanup tears both down.
func benchIngestSetup(b *testing.B, devs int) *wire.Client {
	b.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	db, err := locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
	if err != nil {
		b.Fatal(err)
	}
	s := New(reg, db, bld)
	s.Logf = nil
	for i := 0; i < devs; i++ {
		name := fmt.Sprintf("w%d", i)
		if err := reg.Register(registry.UserID(name), name, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			b.Fatal(err)
		}
		if err := s.Login(wire.Login{User: name, Password: pw, Device: benchDev(i).String()}); err != nil {
			b.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	c := wire.NewClient(wire.NewFrameCodec(conn))
	b.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c
}

func benchDev(i int) baseband.BDAddr {
	return baseband.BDAddr(0xF000_0000_0000 + uint64(i+1))
}

func benchDelta(i, devs int) wire.Presence {
	return wire.Presence{
		Device:  benchDev(i % devs).String(),
		Room:    graph.NodeID(1 + i%7),
		At:      sim.Tick(i + 1),
		Present: true,
	}
}

// BenchmarkIngestDelta measures the workstation write path end to end
// over TCP, in ns per delta: an ingest session streaming
// MsgPresenceBatch frames of DefaultMaxBatch*4 deltas, stop-and-wait per
// frame.
func BenchmarkIngestDelta(b *testing.B) {
	const devs = 64
	const frame = 256

	b.Run("batched", func(b *testing.B) {
		c := benchIngestSetup(b, devs)
		var ack wire.IngestAck
		if err := c.Call(wire.MsgIngestHello,
			wire.IngestHello{Session: "bench", Station: "S", Room: 1}, &ack); err != nil {
			b.Fatal(err)
		}
		deltas := make([]wire.Presence, 0, frame)
		seq := uint64(0)
		b.ResetTimer()
		for i := 0; i < b.N; {
			deltas = deltas[:0]
			for len(deltas) < frame && i < b.N {
				deltas = append(deltas, benchDelta(i, devs))
				i++
			}
			seq++
			if err := c.Call(wire.MsgPresenceBatch,
				wire.PresenceBatch{Session: "bench", Seq: seq, Deltas: deltas}, &ack); err != nil {
				b.Fatal(err)
			}
		}
	})
}
