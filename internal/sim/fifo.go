package sim

// FIFO is a growable first-in first-out queue held in a ring: Push
// writes at the tail, Pop reads at the head, and both wrap, so a queue
// that drains and refills reuses its backing array instead of sliding
// off the end of it — the `x = x[1:]` … `append(x, v)` idiom walks a
// slice's capacity to zero and re-allocates on every refill. The
// backing array starts empty, grows by doubling when a Push finds it
// full, and never shrinks. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest item
	n    int // items queued
}

// fifoMinCap is the backing array's size after the first Push.
const fifoMinCap = 4

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Cap returns the size of the backing array: how many items the queue
// has ever had to hold at once, rounded up to a power of two.
func (q *FIFO[T]) Cap() int { return len(q.buf) }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the backing array, unwrapping the queued items to its
// start.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = fifoMinCap
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the oldest item, clearing the vacated slot so
// the queue pins nothing it no longer holds. It panics on an empty
// queue, as indexing an empty slice does.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns the i-th oldest item, 0 being the head, without removing
// it.
func (q *FIFO[T]) At(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Peek returns the oldest item without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek on an empty FIFO")
	}
	return q.buf[q.head]
}

// Pool is a last-in first-out free list: the one pooling idiom. Get
// hands back the record most recently Put (the one likeliest to be in
// cache) and reports false when the list is empty — the owner then makes
// a fresh record, so the list never holds more than were out at once.
// What a record must look like when it is Put, and when it must not be
// Put at all, is its owner's rule (DESIGN.md §7e). The zero value is an
// empty pool.
type Pool[T any] []T

// Get removes and returns the most recently Put record.
func (p *Pool[T]) Get() (v T, ok bool) {
	s := *p
	k := len(s) - 1
	if k < 0 {
		return v, false
	}
	var zero T
	v, s[k] = s[k], zero
	*p = s[:k]
	return v, true
}

// Put returns a record nothing references anymore.
func (p *Pool[T]) Put(v T) { *p = append(*p, v) }
