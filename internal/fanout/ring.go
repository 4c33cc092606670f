package fanout

import "sync"

// delivery is one matched (subscriber, event) pair queued for the
// delivery stage.
type delivery struct {
	s *sub
	e Event
}

// deliveryRing is the bounded in-order queue between matching and the
// subscriber callbacks: publishers enqueue matched pairs while holding
// their index locks (so queue order equals match order), one consumer
// goroutine drains them and runs the callbacks. A full ring blocks the
// enqueuing publisher until the consumer frees space — backpressure,
// never loss. The consumer takes no tree locks, so it always makes
// progress against blocked publishers.
type deliveryRing struct {
	// enqMu serializes whole enqueue calls. One matched batch (one
	// event's subscriber block) must land contiguously even when the
	// ring fills mid-copy and the publisher has to wait — notFull.Wait
	// releases mu, and without the outer lock another publisher could
	// splice its block into the gap, breaking subscription-order
	// delivery.
	enqMu    sync.Mutex
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	idle     sync.Cond

	buf  []delivery
	head int // index of the oldest queued entry
	n    int // queued entries

	// pending counts entries enqueued but not yet invoked — it stays
	// nonzero while the consumer is mid-chunk, which is what lets
	// flush wait for in-flight callbacks, not just an empty buffer.
	pending int

	closed bool
	done   chan struct{}
}

func newDeliveryRing(size int) *deliveryRing {
	r := &deliveryRing{
		buf:  make([]delivery, size),
		done: make(chan struct{}),
	}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	r.idle.L = &r.mu
	return r
}

// enqueue appends the pairs in order, blocking while the ring is full.
// batch is the caller's scratch and is copied before return. If the
// ring has been closed the pairs are invoked inline instead, so a
// publish racing Close still delivers.
func (r *deliveryRing) enqueue(t *Tree, batch []delivery) {
	r.enqMu.Lock()
	defer r.enqMu.Unlock()
	r.mu.Lock()
	for len(batch) > 0 {
		for r.n == len(r.buf) && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			for _, d := range batch {
				t.invoke(d.s, d.e)
			}
			return
		}
		free := len(r.buf) - r.n
		k := len(batch)
		if k > free {
			k = free
		}
		tail := (r.head + r.n) % len(r.buf)
		copied := copy(r.buf[tail:], batch[:k])
		if copied < k {
			copy(r.buf, batch[copied:k])
		}
		r.n += k
		r.pending += k
		batch = batch[k:]
		r.notEmpty.Signal()
	}
	r.mu.Unlock()
}

// chunk bounds how many entries the consumer pops per lock
// acquisition, so a deep backlog cannot starve publishers of the ring
// lock for its whole length.
const chunk = 256

// run is the delivery goroutine: pop a chunk, release the lock, run
// the callbacks, account them as no-longer-pending. On close it drains
// whatever is queued before signalling done.
func (r *deliveryRing) run(t *Tree) {
	var local [chunk]delivery
	r.mu.Lock()
	for {
		for r.n == 0 && !r.closed {
			r.notEmpty.Wait()
		}
		if r.n == 0 && r.closed {
			r.mu.Unlock()
			close(r.done)
			return
		}
		k := r.n
		if k > chunk {
			k = chunk
		}
		for i := 0; i < k; i++ {
			j := (r.head + i) % len(r.buf)
			local[i] = r.buf[j]
			r.buf[j] = delivery{} // drop the *sub reference
		}
		r.head = (r.head + k) % len(r.buf)
		r.n -= k
		r.notFull.Broadcast()
		r.mu.Unlock()
		for i := 0; i < k; i++ {
			t.invoke(local[i].s, local[i].e)
			local[i] = delivery{}
		}
		r.mu.Lock()
		r.pending -= k
		if r.pending == 0 {
			r.idle.Broadcast()
		}
	}
}

// flush blocks until every entry enqueued before the call has been
// handed to invoke. Entries enqueued concurrently with flush may or
// may not be waited for.
func (r *deliveryRing) flush() {
	r.mu.Lock()
	for r.pending > 0 {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// close stops the consumer after it drains everything queued, then
// waits for it to exit. Idempotent.
func (r *deliveryRing) close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
	<-r.done
}

func (r *deliveryRing) backlog() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending
}
