// Command bips-station runs one BIPS workstation cell against a remote
// central server. Lacking real Bluetooth hardware, the cell's radio world
// is simulated: the station spawns synthetic mobile devices that wander
// through its coverage disc, discovers and enrolls them with the paper's
// 3.84 s / 15.4 s policy, and pushes the resulting presence deltas to the
// server over the wire protocol — the same protocol a hardware-backed
// station would use.
//
//	bips-station -server 127.0.0.1:7700 -room 1 -devices 3 -duration 5m
//
// Deltas travel over a resumable ingest session (docs/PROTOCOL.md §8):
// the workstation buffers them (-batch, -batch-delay) and the station
// streams sequenced batch frames, reconnecting with exponential backoff
// when the server connection drops and resuming from the server's
// cumulative ack. The session id (-session, default derived from the
// station address) plus the deterministic -seed make the station fully
// crash-resumable: a killed station restarted with the same flags
// regenerates the same delta stream, and the server's ack makes it skip
// everything already applied — no lost deltas, no duplicates.
//
// The simulation is deterministic: the same -seed, -room, -devices and
// -duration produce the same device walks and therefore the same delta
// stream, which makes runs reproducible and resumable.
//
// The station exits non-zero when the server is unreachable at startup,
// and after the run when the final drain cannot deliver every delta.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"bips/internal/baseband"
	"bips/internal/device"
	"bips/internal/graph"
	"bips/internal/hci"
	"bips/internal/ingest"
	"bips/internal/mobility"
	"bips/internal/radio"
	"bips/internal/sim"
	"bips/internal/wire"
	"bips/internal/workstation"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("bips-station: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bips-station", flag.ContinueOnError)
	var (
		serverAddr = fs.String("server", "127.0.0.1:7700", "central server address")
		timeout    = fs.Duration("timeout", 5*time.Second, "connect timeout")
		room       = fs.Int("room", 1, "room id this station covers")
		devices    = fs.Int("devices", 3, "synthetic mobile devices in the cell")
		duration   = fs.Duration("duration", 2*time.Minute, "simulated running time")
		seed       = fs.Int64("seed", 1, "random seed; equal seeds reproduce the exact delta stream")
		login      = fs.String("login", "", "comma-separated user:password pairs to log the synthetic devices in as")
		session    = fs.String("session", "", "ingest session id (default: derived from the station address); reuse it across restarts to resume")
		batchMax   = fs.Int("batch", ingest.DefaultMaxBatch, "deltas per ingest frame (workstation max-batch flush)")
		batchDelay = fs.Duration("batch-delay", 2*time.Second, "max simulated time a buffered delta waits before flush")
		drainWait  = fs.Duration("drain-timeout", 30*time.Second, "how long to wait at the end for every delta to be acked")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stationAddr := baseband.BDAddr(0xA000_0000_0000 + uint64(*room))
	sessionID := *session
	if sessionID == "" {
		sessionID = "station-" + stationAddr.String()
	}

	// Control connection: announce the station, log the synthetic
	// devices in, and above all fail fast with a clear message when the
	// server cannot be reached — a station that cannot deliver deltas
	// should say so and exit non-zero, not spin silently.
	conn, err := net.DialTimeout("tcp", *serverAddr, *timeout)
	if err != nil {
		return fmt.Errorf("server %s unreachable: %w (is bips-server running there?)", *serverAddr, err)
	}
	control := wire.NewClient(wire.NewFrameCodec(conn))
	if err := control.Call(wire.MsgHello, wire.Hello{
		Station: stationAddr.String(),
		Room:    graph.NodeID(*room),
	}, nil); err != nil {
		control.Close()
		return fmt.Errorf("hello: %w", err)
	}
	log.Printf("station %s registered for room %d (session %q)", stationAddr, *room, sessionID)

	k := sim.NewKernel(*seed)
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: stationAddr, Pos: radio.Point{X: 0, Y: 0}})
	ctrl := hci.New(k, hci.Config{Addr: stationAddr}, med)
	defer ctrl.Close()

	rng := rand.New(rand.NewSource(*seed + 7))
	var addrs []baseband.BDAddr
	for i := 0; i < *devices; i++ {
		w, err := mobility.NewWalker(mobility.WalkerConfig{
			// Wander a little beyond the 10 m disc so devices
			// come and go.
			Bounds: mobility.Rect{MinX: -14, MinY: -14, MaxX: 14, MaxY: 14},
			Start:  radio.Point{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5},
		}, rng)
		if err != nil {
			control.Close()
			return err
		}
		addr := baseband.BDAddr(0xB000_0000_0000 + uint64(*room)<<16 + uint64(i+1))
		m, err := device.New(k, med, device.Config{Addr: addr, Walker: w}, rng)
		if err != nil {
			control.Close()
			return err
		}
		ctrl.AttachDevice(m.Radio())
		addrs = append(addrs, addr)
		log.Printf("device %s wandering the cell", addr)
	}

	// Optionally bind devices to users so the server tracks them.
	if *login != "" {
		if err := loginDevices(control, *login, addrs); err != nil {
			control.Close()
			return err
		}
	}
	if err := control.Close(); err != nil {
		log.Printf("control close: %v", err)
	}

	// The ingest stream: the workstation cuts deterministic frames
	// (max-batch / simulated max-delay), the client delivers them with
	// reconnect + resume, so frame boundaries depend only on the
	// simulation.
	stream, err := ingest.NewClient(ingest.ClientConfig{
		Addr:     *serverAddr,
		Session:  sessionID,
		Station:  stationAddr.String(),
		Room:     graph.NodeID(*room),
		MaxBatch: *batchMax,
		Logf:     log.Printf,
	})
	if err != nil {
		return err
	}

	ws, err := workstation.New(k, ctrl, workstation.Config{
		Room:       graph.NodeID(*room),
		BatchMax:   *batchMax,
		BatchDelay: sim.FromDuration(*batchDelay),
	}, stream)
	if err != nil {
		stream.Close()
		return err
	}

	ws.Start()
	k.RunUntil(sim.FromDuration(*duration))
	ws.Stop()

	drainErr := stream.Drain(*drainWait)
	ist := stream.Stats()
	if err := stream.Close(); err != nil {
		log.Printf("stream close: %v", err)
	}
	st := ws.Stats()
	log.Printf("done: cycles=%d discoveries=%d enrollments=%d departures=%d batches=%d", st.Cycles, st.Discoveries, st.Enrollments, st.Departures, st.Batches)
	log.Printf("ingest: framesSent=%d deltasAcked=%d acked=%d reconnects=%d skipped=%d",
		ist.FramesSent, ist.DeltasAcked, ist.Acked, ist.Reconnects, ist.SkippedFrames)
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}

func loginDevices(client *wire.Client, spec string, addrs []baseband.BDAddr) error {
	pairs := splitPairs(spec)
	for i, p := range pairs {
		if i >= len(addrs) {
			break
		}
		err := client.Call(wire.MsgLogin, wire.Login{
			User: p[0], Password: p[1], Device: addrs[i].String(),
		}, nil)
		var werr *wire.Error
		if errors.As(err, &werr) && werr.Code == wire.CodeAuth {
			// A restarted station re-logs users that never logged out;
			// tracking continues under the existing binding.
			log.Printf("login %q: %s (continuing; a restarted station resumes the existing binding)", p[0], werr.Message)
			continue
		}
		if err != nil {
			return fmt.Errorf("login %s: %w", p[0], err)
		}
		log.Printf("logged in %q on %s", p[0], addrs[i])
	}
	return nil
}

func splitPairs(spec string) [][2]string {
	var out [][2]string
	for _, item := range splitComma(spec) {
		for i := 0; i < len(item); i++ {
			if item[i] == ':' {
				out = append(out, [2]string{item[:i], item[i+1:]})
				break
			}
		}
	}
	return out
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
