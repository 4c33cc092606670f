package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("Counter not idempotent")
	}
	if got := r.Snapshot().Counters["reqs"]; got != 5 {
		t.Fatalf("snapshot counter = %d", got)
	}
}

func TestBucketMapping(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{1e-9, 0},
		{1e-6, 0},
		{2e-6, 1},
		{2.1e-6, 2},
		{1e-3, bucketFor(1e-3)},
		{1e9, numBuckets - 1},
	}
	for _, c := range cases {
		got := bucketFor(c.v)
		if got != c.want {
			t.Errorf("bucketFor(%g) = %d, want %d", c.v, got, c.want)
		}
		if c.v > 0 && c.v <= bucketBound(numBuckets-1) && c.v > bucketBound(got) {
			t.Errorf("bucketFor(%g) = %d but bound %g < v", c.v, got, bucketBound(got))
		}
	}
	// Bounds are increasing.
	for i := 1; i < numBuckets; i++ {
		if bucketBound(i) <= bucketBound(i-1) {
			t.Fatalf("bounds not increasing at %d", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1ms x90, 100ms x9, 1s x1.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.100)
	}
	h.Observe(1.0)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.Sum-(0.09+0.9+1.0)) > 1e-9 {
		t.Fatalf("Sum = %g", s.Sum)
	}
	if s.Min != 0.001 || s.Max != 1.0 {
		t.Fatalf("Min/Max = %g/%g", s.Min, s.Max)
	}
	// p50 must land in the 1ms bucket region, p99+ near the tail.
	if p := s.Quantile(0.5); p > 0.01 {
		t.Errorf("p50 = %g, want ~1ms", p)
	}
	if p := s.Quantile(0.95); p < 0.05 || p > 0.3 {
		t.Errorf("p95 = %g, want ~100ms", p)
	}
	if p := s.Quantile(1.0); p != 1.0 {
		t.Errorf("p100 = %g, want clamped to max 1.0", p)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(250 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || math.Abs(s.Sum-0.25) > 1e-9 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers = 8
	const each = 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("lat")
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != workers*each {
		t.Fatalf("counter = %d", s.Counters["n"])
	}
	hs := s.Histograms["lat"]
	if hs.Count != workers*each {
		t.Fatalf("histogram count = %d", hs.Count)
	}
	if math.Abs(hs.Sum-float64(workers*each)*0.001) > 1e-6 {
		t.Fatalf("histogram sum = %g", hs.Sum)
	}
}
