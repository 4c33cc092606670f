package radio

import (
	"math"
	"testing"
	"testing/quick"

	"bips/internal/baseband"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{name: "same point", p: Point{1, 2}, q: Point{1, 2}, want: 0},
		{name: "unit x", p: Point{0, 0}, q: Point{1, 0}, want: 1},
		{name: "3-4-5", p: Point{0, 0}, q: Point{3, 4}, want: 5},
		{name: "negative coords", p: Point{-3, -4}, q: Point{0, 0}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		d1, d2 := p.Dist(q), q.Dist(p)
		return d1 == d2 && (d1 >= 0 || math.IsNaN(d1) || math.IsInf(d1, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMediumInRange(t *testing.T) {
	m := NewMedium()
	ws := baseband.BDAddr(0x1)
	dev := baseband.BDAddr(0x2)
	m.Place(Station{Addr: ws, Pos: Point{0, 0}})
	m.Place(Station{Addr: dev, Pos: Point{5, 0}})
	if !m.InRange(ws, dev) {
		t.Error("device at 5m not in 10m default coverage")
	}
	m.Move(dev, Point{10.0, 0})
	if !m.InRange(ws, dev) {
		t.Error("device exactly at radius should be in range")
	}
	m.Move(dev, Point{10.01, 0})
	if m.InRange(ws, dev) {
		t.Error("device beyond radius reported in range")
	}
}

func TestMediumCustomRadius(t *testing.T) {
	m := NewMedium()
	ws := baseband.BDAddr(0x1)
	dev := baseband.BDAddr(0x2)
	m.Place(Station{Addr: ws, Pos: Point{0, 0}, Radius: 3})
	m.Place(Station{Addr: dev, Pos: Point{5, 0}})
	if m.InRange(ws, dev) {
		t.Error("5m device in range of 3m-radius cell")
	}
}

func TestMediumUnknownStations(t *testing.T) {
	m := NewMedium()
	if m.InRange(1, 2) {
		t.Error("unknown stations in range")
	}
	if _, ok := m.Position(1); ok {
		t.Error("unknown station has position")
	}
	m.Remove(1) // must not panic
}

func TestMoveRegistersUnknown(t *testing.T) {
	m := NewMedium()
	m.Move(7, Point{1, 1})
	if pos, ok := m.Position(7); !ok || pos != (Point{1, 1}) {
		t.Errorf("Position(7) = %v,%v after Move", pos, ok)
	}
}

func TestRemove(t *testing.T) {
	m := NewMedium()
	m.Place(Station{Addr: 1, Pos: Point{0, 0}})
	m.Place(Station{Addr: 2, Pos: Point{1, 0}})
	m.Remove(2)
	if m.InRange(1, 2) {
		t.Error("removed station still in range")
	}
}

func TestResponseBucketSingleDelivery(t *testing.T) {
	b := NewResponseBucket(CollideDestroyAll)
	b.Submit(Response{From: 1, At: 10})
	delivered, collided := b.Drain(10)
	if len(delivered) != 1 || len(collided) != 0 {
		t.Fatalf("Drain = %d delivered, %d collided; want 1, 0",
			len(delivered), len(collided))
	}
	if delivered[0].From != 1 {
		t.Errorf("delivered from %v, want 1", delivered[0].From)
	}
	// Second drain of same tick is empty.
	delivered, collided = b.Drain(10)
	if len(delivered) != 0 || len(collided) != 0 {
		t.Error("second drain returned responses")
	}
}

func TestResponseBucketCollision(t *testing.T) {
	b := NewResponseBucket(CollideDestroyAll)
	b.Submit(Response{From: 1, At: 10})
	b.Submit(Response{From: 2, At: 10})
	b.Submit(Response{From: 3, At: 12}) // different half slot: survives
	delivered, collided := b.Drain(10)
	if len(delivered) != 0 {
		t.Errorf("colliding responses delivered: %v", delivered)
	}
	if len(collided) != 2 {
		t.Errorf("collided = %d, want 2", len(collided))
	}
	delivered, collided = b.Drain(12)
	if len(delivered) != 1 || len(collided) != 0 {
		t.Errorf("tick 12 Drain = %d delivered %d collided, want 1, 0",
			len(delivered), len(collided))
	}
}

func TestResponseBucketNoCollisionPolicy(t *testing.T) {
	b := NewResponseBucket(CollideNone)
	b.Submit(Response{From: 1, At: 10})
	b.Submit(Response{From: 2, At: 10})
	delivered, collided := b.Drain(10)
	if len(delivered) != 2 || len(collided) != 0 {
		t.Errorf("CollideNone Drain = %d delivered %d collided, want 2, 0",
			len(delivered), len(collided))
	}
}

func TestResponseBucketDefaultPolicy(t *testing.T) {
	b := NewResponseBucket(0)
	b.Submit(Response{From: 1, At: 5})
	b.Submit(Response{From: 2, At: 5})
	delivered, _ := b.Drain(5)
	if len(delivered) != 0 {
		t.Error("zero policy should default to destroy-all")
	}
}

func TestCollisionPolicyString(t *testing.T) {
	if CollideDestroyAll.String() != "destroy-all" ||
		CollideNone.String() != "none" {
		t.Error("unexpected policy names")
	}
	if CollisionPolicy(9).String() != "CollisionPolicy(9)" {
		t.Error("unknown policy name")
	}
}
