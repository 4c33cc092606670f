// Package metrics is a small, dependency-free counter and histogram
// registry for the serving layer. It exists so the server can answer the
// wire protocol's MsgStats query without pulling in an external metrics
// stack.
//
// Counters and histograms are lock-free on the hot path (atomic adds);
// the registry map itself is only locked on first registration and on
// snapshot. Histograms use fixed exponential buckets from 1 µs to ~67 s,
// which spans everything from an in-process dispatch to a wedged disk.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram bucket layout: bucket i counts observations in
// (bound[i-1], bound[i]], with bound[i] = smallestBound * 2^i.
const (
	numBuckets    = 27
	smallestBound = 1e-6 // 1 µs
)

// bucketBound returns the inclusive upper bound of bucket i in seconds.
func bucketBound(i int) float64 {
	return smallestBound * float64(uint64(1)<<uint(i))
}

// bucketFor maps an observation to its bucket index.
func bucketFor(v float64) int {
	if v <= smallestBound {
		return 0
	}
	i := int(math.Ceil(math.Log2(v / smallestBound)))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Histogram accumulates float64 observations (by convention: seconds)
// into exponential buckets. All methods are safe for concurrent use and
// the observe path is lock-free.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
	min     atomicFloat
	max     atomicFloat
	once    sync.Once
}

func (h *Histogram) init() {
	h.once.Do(func() {
		h.min.store(math.Inf(1))
		h.max.store(math.Inf(-1))
	})
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.init()
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// atomicFloat is a float64 with atomic add/min/max via CAS on the bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
	Buckets [numBuckets]int64
}

// Snapshot copies the histogram's current state. Concurrent observers may
// land between the bucket reads; the snapshot is internally consistent
// enough for reporting (Count is re-derived from the bucket copies).
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.init()
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.load()
	s.Min = h.min.load()
	s.Max = h.max.load()
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets. The
// estimate is the upper bound of the bucket containing the q-th
// observation, clamped to the observed Min/Max — exact enough for p50/p99
// reporting with exponential buckets.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			b := bucketBound(i)
			if b > s.Max {
				b = s.Max
			}
			if b < s.Min {
				b = s.Min
			}
			return b
		}
	}
	return s.Max
}

// Registry is a named collection of counters and histograms.
type Registry struct {
	mu    sync.RWMutex
	ctrs  map[string]*Counter
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should look the counter up once and keep the pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.ctrs[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.ctrs[name]; c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	Counters   map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.ctrs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
