package sim

// FIFO is a first-in first-out queue on a growable ring buffer. Pop
// reuses the slot it vacates, so a queue whose depth stays bounded
// stops allocating once the ring has grown to that depth — unlike a
// slice resliced from the head, which reallocates every time append
// runs off the end of its backing array. The zero value is an empty
// queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the head element without removing it. The queue must
// not be empty.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front of empty FIFO")
	}
	return q.buf[q.head]
}

// At returns a pointer to the i-th element from the head, for reading
// or updating it in place; i must be in [0, Len). The pointer is valid
// until the next Push.
func (q *FIFO[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Pop removes and returns the head element. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	v := q.Front()
	var zero T
	q.buf[q.head] = zero // drop the reference for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, unrolling it so the head sits at index 0.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 16
	}
	grown := make([]T, size)
	for i := 0; i < q.n; i++ {
		grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = grown
	q.head = 0
}
