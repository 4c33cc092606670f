// Command bips-query is the mobile client of the BIPS service: it logs
// users in and out and asks the central server the paper's queries,
// including the historical spatio-temporal ones.
//
//	bips-query -server 127.0.0.1:7700 login alice secret AA:BB:CC:DD:EE:01
//	bips-query -server 127.0.0.1:7700 locate alice bob
//	bips-query -server 127.0.0.1:7700 at alice bob 2m30s
//	bips-query -server 127.0.0.1:7700 trajectory alice bob 0 5m
//	bips-query -server 127.0.0.1:7700 path alice bob
//	bips-query -server 127.0.0.1:7700 contacts alice bob 0 5m 30s
//	bips-query -server 127.0.0.1:7700 occupancy alice 4,5,6 0 5m 1m
//	bips-query -server 127.0.0.1:7700 dwell alice room 4 0 5m
//	bips-query -server 127.0.0.1:7700 dwell alice device bob 0 5m
//	bips-query -server 127.0.0.1:7700 rooms
//	bips-query -server 127.0.0.1:7700 logout alice
//	bips-query -server 127.0.0.1:7700 -stats
//	bips-query -server 127.0.0.1:7700 -timeout 0 subscribe alice room 4
//
// Timestamps for at/trajectory and the analytics windows are simulated
// time since the server's tracking started: either a Go duration
// ("2m30s", "150s") or a raw tick count (an integer; 3200 ticks = 1 s).
//
// The analytics subcommands ask the history engine (docs/PROTOCOL.md
// section 10): contacts lists who shared a room with the target over
// [from, to) — with an optional minimum total overlap — occupancy
// renders a distinct-device time series per bucket over a
// comma-separated room zone, and dwell summarizes how long visitors
// stayed (per room or per user).
//
// The subscribe subcommand registers a push subscription (docs/
// PROTOCOL.md section 9) and streams the matching events to stdout, one
// line each, until the timeout expires or the server closes:
//
//	subscribe <querier> all                        every presence change
//	subscribe <querier> device <target>            one user's moves
//	subscribe <querier> room <id>                  one room's enters/leaves
//	subscribe <querier> zone <target> <id,id,...>  geofence crossing
//	subscribe <querier> occupancy <id> <K>         occupancy crossing K
//
// -timeout (default 5s) bounds the whole exchange — dial, request and
// response — uniformly for every subcommand, so an unreachable or
// wedged server fails fast instead of hanging. For subscribe it bounds
// the streaming window instead, and -timeout 0 streams forever. -stats
// fetches and prints the server's metrics snapshot (the MsgStats query
// of docs/PROTOCOL.md) after the subcommand, or on its own when no
// subcommand is given. The snapshot includes the transport's flush
// coalescing counters — wire.flushes, wire.frames, wire.flush_bytes and
// the derived wire.frames_per_flush — which show how many response
// frames the server amortizes per write(2); see docs/OPERATIONS.md for
// reading them.
//
// Exit status: 0 on success, 1 when the server answers an error or the
// exchange fails, 2 for a usage error. Scripts can rely on a non-zero
// exit for every failed query.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"bips/internal/graph"
	"bips/internal/sim"
	"bips/internal/wire"
)

// errUsage marks command-line misuse (exit status 2, not 1).
var errUsage = errors.New("usage: bips-query [-server addr] [-timeout d] [-stats] " +
	"{login user pw dev | logout user | locate querier target | at querier target time | " +
	"trajectory querier target from to | path querier target | rooms | " +
	"contacts querier target from to [minOverlap] | " +
	"occupancy querier id,id,... from to bucket | " +
	"dwell querier {room id | device target} from to | " +
	"subscribe querier {all | device target | room id | zone target id,id,... | occupancy id K}}")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bips-query:", err)
		if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bips-query", flag.ContinueOnError)
	serverAddr := fs.String("server", "127.0.0.1:7700", "central server address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial + exchange timeout (0 waits forever)")
	stats := fs.Bool("stats", false, "fetch and print the server's metrics snapshot")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w (%v)", errUsage, err)
	}
	rest := fs.Args()
	if len(rest) == 0 && !*stats {
		return errUsage
	}
	if len(rest) > 0 {
		// Validate shape (and time arguments) before touching the
		// network, so usage errors never depend on server reachability.
		if err := validate(rest); err != nil {
			return err
		}
	}

	// The client is one-shot: a single budget covers dial, every request
	// and every response, so a server that accepts but never answers
	// also fails within -timeout — uniformly for all subcommands,
	// including a trailing -stats fetch.
	start := time.Now()
	conn, err := net.DialTimeout("tcp", *serverAddr, *timeout)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		if err := conn.SetDeadline(start.Add(*timeout)); err != nil {
			return err
		}
	}
	client := wire.NewClient(wire.NewFrameCodec(conn))
	defer client.Close()

	if len(rest) > 0 {
		if err := runCommand(client, rest); err != nil {
			return err
		}
	}
	if *stats {
		if len(rest) > 0 {
			fmt.Println()
		}
		return printStats(client)
	}
	return nil
}

// validate checks a subcommand's shape without executing it.
func validate(rest []string) error {
	if rest[0] == "subscribe" {
		// Variable arity: the filter kind decides. Building the filter
		// exercises every argument parse.
		_, err := subscribeFilter(rest)
		return err
	}
	if rest[0] == "contacts" {
		// Variable arity: the minimum-overlap argument is optional.
		if len(rest) != 5 && len(rest) != 6 {
			return errUsage
		}
		return parseTimes(rest[3:]...)
	}
	want := map[string]int{
		"login": 4, "logout": 2, "locate": 3, "at": 4,
		"trajectory": 5, "path": 3, "rooms": 1,
		"occupancy": 6, "dwell": 6,
	}
	n, ok := want[rest[0]]
	if !ok || len(rest) != n {
		return errUsage
	}
	switch rest[0] {
	case "at":
		_, err := parseTime(rest[3])
		return err
	case "trajectory":
		return parseTimes(rest[3], rest[4])
	case "occupancy":
		if _, err := parseRoomList(rest[2]); err != nil {
			return err
		}
		return parseTimes(rest[3], rest[4], rest[5])
	case "dwell":
		switch rest[2] {
		case "room":
			if _, err := parseRoomID(rest[3]); err != nil {
				return err
			}
		case "device":
			// rest[3] is a userid; the server validates it.
		default:
			return errUsage
		}
		return parseTimes(rest[4], rest[5])
	}
	return nil
}

// parseTimes validates a sequence of timestamp arguments.
func parseTimes(args ...string) error {
	for _, a := range args {
		if _, err := parseTime(a); err != nil {
			return err
		}
	}
	return nil
}

// runCommand executes one subcommand. The caller has already run
// validate, so shape and time arguments are known-good here — arity is
// checked in exactly one place (validate's table). Every error returned
// makes the process exit non-zero.
func runCommand(client *wire.Client, rest []string) error {
	switch rest[0] {
	case "login":
		if err := client.Call(wire.MsgLogin, wire.Login{
			User: rest[1], Password: rest[2], Device: rest[3],
		}, nil); err != nil {
			return err
		}
		fmt.Printf("logged in %q on %s\n", rest[1], rest[3])
	case "logout":
		if err := client.Call(wire.MsgLogout, wire.Logout{User: rest[1]}, nil); err != nil {
			return err
		}
		fmt.Printf("logged out %q\n", rest[1])
	case "locate":
		var res wire.LocateResult
		if err := client.Call(wire.MsgLocate, wire.Locate{
			Querier: rest[1], Target: rest[2],
		}, &res); err != nil {
			return err
		}
		fmt.Printf("%s is in room %d (%s), seen at %s\n",
			rest[2], res.Room, res.RoomName, fmtTick(res.At))
	case "at":
		at, err := parseTime(rest[3])
		if err != nil {
			return err
		}
		var res wire.LocateResult
		if err := client.Call(wire.MsgLocateAt, wire.LocateAt{
			Querier: rest[1], Target: rest[2], At: at,
		}, &res); err != nil {
			return err
		}
		fmt.Printf("%s was in room %d (%s) at %s (entered %s)\n",
			rest[2], res.Room, res.RoomName, fmtTick(at), fmtTick(res.At))
	case "trajectory":
		from, err := parseTime(rest[3])
		if err != nil {
			return err
		}
		to, err := parseTime(rest[4])
		if err != nil {
			return err
		}
		var res wire.TrajectoryResult
		if err := client.Call(wire.MsgTrajectory, wire.TrajectoryQuery{
			Querier: rest[1], Target: rest[2], From: from, To: to,
		}, &res); err != nil {
			return err
		}
		if len(res.Steps) == 0 {
			fmt.Printf("no recorded movement for %s in [%s, %s]\n",
				rest[2], fmtTick(from), fmtTick(to))
			return nil
		}
		fmt.Printf("%s between %s and %s:\n", rest[2], fmtTick(from), fmtTick(to))
		for _, step := range res.Steps {
			fmt.Printf("  %-10s room %-3d %s\n", fmtTick(step.At), step.Room, step.RoomName)
		}
	case "path":
		var res wire.PathResult
		if err := client.Call(wire.MsgPath, wire.PathQuery{
			Querier: rest[1], Target: rest[2],
		}, &res); err != nil {
			return err
		}
		fmt.Printf("shortest path to %s (%.0f m): %s\n",
			rest[2], res.TotalMeters, strings.Join(res.Names, " -> "))
	case "rooms":
		var res wire.RoomsResult
		if err := client.Call(wire.MsgRooms, wire.RoomsQuery{}, &res); err != nil {
			return err
		}
		fmt.Printf("%-4s %-20s %8s %8s\n", "id", "name", "x (m)", "y (m)")
		for _, r := range res.Rooms {
			fmt.Printf("%-4d %-20s %8.1f %8.1f\n", r.ID, r.Name, r.X, r.Y)
		}
	case "contacts":
		from, _ := parseTime(rest[3])
		to, _ := parseTime(rest[4])
		var minOverlap sim.Tick
		if len(rest) == 6 {
			minOverlap, _ = parseTime(rest[5])
		}
		var res wire.ContactsResult
		if err := client.Call(wire.MsgContacts, wire.ContactsQuery{
			Querier: rest[1], Target: rest[2], From: from, To: to, MinOverlap: minOverlap,
		}, &res); err != nil {
			return err
		}
		if len(res.Contacts) == 0 {
			fmt.Printf("no contacts of %s in [%s, %s)\n", rest[2], fmtTick(from), fmtTick(to))
			return nil
		}
		fmt.Printf("%d contact(s) of %s in [%s, %s):\n", len(res.Contacts), rest[2], fmtTick(from), fmtTick(to))
		for _, c := range res.Contacts {
			who := c.User
			if who == "" {
				who = c.Device
			}
			rooms := make([]string, 0, len(c.Rooms))
			for _, id := range c.Rooms {
				rooms = append(rooms, strconv.FormatInt(int64(id), 10))
			}
			fmt.Printf("  %-10s overlap %-12v rooms %-10s from %s to %s\n",
				who, c.Overlap.Duration(), strings.Join(rooms, ","), fmtTick(c.First), fmtTick(c.Last))
		}
	case "occupancy":
		rooms, _ := parseRoomList(rest[2])
		from, _ := parseTime(rest[3])
		to, _ := parseTime(rest[4])
		bucket, _ := parseTime(rest[5])
		var res wire.OccupancyResult
		if err := client.Call(wire.MsgOccupancy, wire.OccupancyQuery{
			Querier: rest[1], Rooms: rooms, From: from, To: to, Bucket: bucket,
		}, &res); err != nil {
			return err
		}
		fmt.Printf("occupancy of rooms %s in [%s, %s), bucket %s:\n",
			rest[2], fmtTick(from), fmtTick(to), fmtTick(bucket))
		for _, p := range res.Buckets {
			fmt.Printf("  %-22s %d\n", fmtTick(p.At), p.Count)
		}
	case "dwell":
		from, _ := parseTime(rest[4])
		to, _ := parseTime(rest[5])
		req := wire.DwellQuery{Querier: rest[1], From: from, To: to}
		var what string
		if rest[2] == "room" {
			id, _ := parseRoomID(rest[3])
			req.Kind, req.Room = wire.DwellRoom, id
			what = "in room " + rest[3]
		} else {
			req.Kind, req.Target = wire.DwellDevice, rest[3]
			what = "of " + rest[3]
		}
		var res wire.DwellResult
		if err := client.Call(wire.MsgDwell, req, &res); err != nil {
			return err
		}
		if res.Samples == 0 {
			fmt.Printf("no dwell samples %s in [%s, %s)\n", what, fmtTick(from), fmtTick(to))
			return nil
		}
		fmt.Printf("dwell %s in [%s, %s): %d sample(s)\n", what, fmtTick(from), fmtTick(to), res.Samples)
		fmt.Printf("  mean %v  stddev %v\n", fmtMeanTick(res.Mean), fmtMeanTick(res.Stddev))
		fmt.Printf("  min %v  p50 %v  p90 %v  p99 %v  max %v\n",
			res.Min.Duration(), res.P50.Duration(), res.P90.Duration(), res.P99.Duration(), res.Max.Duration())
	case "subscribe":
		return runSubscribe(client, rest)
	default:
		return errUsage
	}
	return nil
}

// subscribeFilter parses a subscribe subcommand's arguments into the
// wire filter. It is also validate's arity check for the subcommand.
func subscribeFilter(rest []string) (wire.SubFilter, error) {
	if len(rest) < 3 {
		return wire.SubFilter{}, errUsage
	}
	roomID := parseRoomID
	switch rest[2] {
	case "all":
		if len(rest) != 3 {
			return wire.SubFilter{}, errUsage
		}
		return wire.SubFilter{Kind: wire.FilterAll}, nil
	case "device":
		if len(rest) != 4 {
			return wire.SubFilter{}, errUsage
		}
		return wire.SubFilter{Kind: wire.FilterDevice, Target: rest[3]}, nil
	case "room":
		if len(rest) != 4 {
			return wire.SubFilter{}, errUsage
		}
		id, err := roomID(rest[3])
		if err != nil {
			return wire.SubFilter{}, err
		}
		return wire.SubFilter{Kind: wire.FilterRoom, Room: id}, nil
	case "zone":
		if len(rest) != 5 {
			return wire.SubFilter{}, errUsage
		}
		var rooms []graph.NodeID
		for _, part := range strings.Split(rest[4], ",") {
			id, err := roomID(strings.TrimSpace(part))
			if err != nil {
				return wire.SubFilter{}, err
			}
			rooms = append(rooms, id)
		}
		return wire.SubFilter{Kind: wire.FilterZone, Target: rest[3], Rooms: rooms}, nil
	case "occupancy":
		if len(rest) != 5 {
			return wire.SubFilter{}, errUsage
		}
		id, err := roomID(rest[3])
		if err != nil {
			return wire.SubFilter{}, err
		}
		k, err := strconv.Atoi(rest[4])
		if err != nil || k < 1 {
			return wire.SubFilter{}, fmt.Errorf("bad occupancy threshold %q (want an integer >= 1): %w", rest[4], errUsage)
		}
		return wire.SubFilter{Kind: wire.FilterOccupancy, Room: id, Threshold: k}, nil
	default:
		return wire.SubFilter{}, errUsage
	}
}

// runSubscribe registers the subscription and streams matching events
// to stdout until the connection ends (deadline, server close, ^C). The
// deadline expiring is the subcommand's normal way to finish, not a
// failure.
func runSubscribe(client *wire.Client, rest []string) error {
	filter, err := subscribeFilter(rest)
	if err != nil {
		return err
	}
	// The handler must be installed before the subscribe call: events
	// may arrive the instant the server registers the filter.
	client.SetPushHandler(func(env wire.Envelope) {
		var e wire.Event
		if err := wire.UnmarshalBody(env, &e); err != nil {
			return
		}
		printEvent(e)
	})
	if err := client.Call(wire.MsgSubscribe, wire.Subscribe{
		ID: "cli", Querier: rest[1], Filter: filter,
	}, nil); err != nil {
		return err
	}
	fmt.Printf("subscribed (%s); streaming events...\n", filter.Kind)
	<-client.Done()
	if err := client.Err(); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// printEvent renders one pushed event as a line.
func printEvent(e wire.Event) {
	switch e.Kind {
	case wire.EventOccupancyRise, wire.EventOccupancyFall:
		fmt.Printf("%-14s room %-3d %-20s occupancy=%d at %s\n",
			e.Kind, e.Room, e.RoomName, e.Occupancy, fmtTick(e.At))
	default:
		who := e.User
		if who == "" {
			who = e.Device
		}
		fmt.Printf("%-14s %-10s room %-3d %-20s at %s\n",
			e.Kind, who, e.Room, e.RoomName, fmtTick(e.At))
	}
}

// parseRoomID parses a single numeric room id.
func parseRoomID(s string) (graph.NodeID, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad room id %q (want an integer): %w", s, errUsage)
	}
	return graph.NodeID(n), nil
}

// parseRoomList parses a comma-separated room-id list ("4,5,6").
func parseRoomList(s string) ([]graph.NodeID, error) {
	var rooms []graph.NodeID
	for _, part := range strings.Split(s, ",") {
		id, err := parseRoomID(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		rooms = append(rooms, id)
	}
	return rooms, nil
}

// fmtMeanTick renders a fractional tick count (a mean or a standard
// deviation) as a duration.
func fmtMeanTick(ticks float64) time.Duration {
	return time.Duration(ticks * float64(sim.TickDuration))
}

// parseTime accepts a simulated timestamp as a Go duration ("2m30s") or
// a raw tick count ("480000").
func parseTime(s string) (sim.Tick, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sim.Tick(n), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad time %q (want a duration like 2m30s or a tick count): %w", s, errUsage)
	}
	return sim.FromDuration(d), nil
}

// fmtTick renders a simulated tick as both a duration and the raw tick.
func fmtTick(t sim.Tick) string {
	return fmt.Sprintf("%v (tick %d)", t.Duration(), int64(t))
}

// printStats fetches the server's metrics snapshot over the open
// connection and renders it.
func printStats(client *wire.Client) error {
	var res wire.StatsResult
	if err := client.Call(wire.MsgStats, wire.StatsQuery{}, &res); err != nil {
		return err
	}
	wire.PrintStats(os.Stdout, res)
	return nil
}
