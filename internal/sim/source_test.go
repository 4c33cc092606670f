package sim

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream fails t unless Source and rand.NewSource agree on the first n
// draws after seeding with seed, and again after reseeding mid-stream.
func sameStream(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := NewSource(seed)
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
		}
	}
	want.Seed(seed)
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d reseeded: Int63 %d = %d, want %d", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	edges := []int64{0, 1, -1, int32max, -int32max, 89482311, math.MinInt64, math.MaxInt64}
	for _, seed := range edges {
		sameStream(t, seed, 2000)
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 300; n++ {
		sameStream(t, rng.Int63()-rng.Int63(), 2000)
	}
}

// Reseeding in the middle of a stream, where some register words are
// seeded and some are not, restarts the stream.
func TestSourceReseedMidStream(t *testing.T) {
	s := NewSource(7)
	for i := 0; i < 100; i++ {
		s.Uint64()
	}
	s.Seed(7)
	want := rand.NewSource(7).(rand.Source64)
	for i := 0; i < 2000; i++ {
		if w, g := want.Uint64(), s.Uint64(); w != g {
			t.Fatalf("draw %d after reseeding = %#x, want %#x", i, g, w)
		}
	}
}

func TestSourceSeedDoesNotAllocate(t *testing.T) {
	r := rand.New(NewSource(1))
	if n := testing.AllocsPerRun(100, func() { r.Seed(12345); r.Int63() }); n != 0 {
		t.Errorf("Seed + Int63 allocates %.1f times, want 0", n)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(math.MinInt64), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, seed, int(n)%1300)
	})
}
