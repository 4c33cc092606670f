// Package replica runs one whole-building BIPS deployment of walking
// users and samples tracking success along a timeline — the Monte-Carlo
// unit shared by bips-sim's -replicas mode and bips-experiment's
// floor-plan tracking comparison. It sits above the public bips API so
// both binaries measure exactly what a user of the service would see.
package replica

import (
	"fmt"
	"time"

	"bips"
)

// Config describes one deployment replica.
type Config struct {
	// Users is the number of walking users (user01, user02, ...).
	Users int
	// Duration is the simulated time to run; Step the sampling interval.
	Duration, Step time.Duration
	// Plan is the floor plan; nil deploys the built-in academic
	// department.
	Plan *bips.FloorPlan
}

// Result counts locate successes over all (user, step) timeline samples.
type Result struct {
	Located, Samples int
}

// Fraction is the tracking accuracy: Located/Samples, 0 when no samples
// were taken.
func (r Result) Fraction() float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Located) / float64(r.Samples)
}

// User is one deployed walking user.
type User struct {
	Name   string
	Start  string // starting room
	Device string // assigned handheld BD_ADDR
}

// New builds the deployment for one replica: a service with the given
// seed and plan, cfg.Users registered walking users started round-robin
// across the rooms. The caller closes the service.
func New(seed int64, cfg Config) (*bips.Service, []User, error) {
	opts := []bips.Option{bips.WithSeed(seed)}
	if cfg.Plan != nil {
		opts = append(opts, bips.WithBuilding(cfg.Plan))
	}
	svc, err := bips.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	rooms := svc.Rooms()
	users := make([]User, 0, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		name := fmt.Sprintf("user%02d", i+1)
		if err := svc.Register(name, "pw"); err != nil {
			return nil, nil, err
		}
		start := rooms[i%len(rooms)]
		dev, err := svc.AddWalkingUser(name, "pw", start)
		if err != nil {
			return nil, nil, err
		}
		users = append(users, User{Name: name, Start: start, Device: dev})
	}
	return svc, users, nil
}

// Run deploys one replica and counts the timeline samples at which each
// user was locatable (queried on behalf of the first user).
func Run(seed int64, cfg Config) (Result, error) {
	svc, users, err := New(seed, cfg)
	if err != nil {
		return Result{}, err
	}
	defer svc.Close()
	svc.Start()
	defer svc.Stop()

	var out Result
	for elapsed := time.Duration(0); elapsed < cfg.Duration; elapsed += cfg.Step {
		svc.Run(cfg.Step)
		for _, u := range users {
			out.Samples++
			if _, err := svc.Locate(users[0].Name, u.Name); err == nil {
				out.Located++
			}
		}
	}
	return out, nil
}
