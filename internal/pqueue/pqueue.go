// Package pqueue provides a small generic binary min-heap keyed by float64
// priorities. It backs the best-first traversals of the R-tree and IR-tree
// and the candidate orderings inside the CoSKQ algorithms.
//
// The implementation is a plain array heap rather than container/heap so
// call sites avoid interface boxing on hot paths.
package pqueue

// Item pairs a value with its priority.
type Item[T any] struct {
	Value    T
	Priority float64
}

// Queue is a binary min-heap ordered by ascending Priority. The zero value
// is an empty, ready-to-use queue.
type Queue[T any] struct {
	items []Item[T]
}

// New returns an empty queue with capacity hint n.
func New[T any](n int) *Queue[T] {
	return &Queue[T]{items: make([]Item[T], 0, n)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Empty reports whether the queue has no items.
func (q *Queue[T]) Empty() bool { return len(q.items) == 0 }

// Push enqueues value with the given priority.
func (q *Queue[T]) Push(value T, priority float64) {
	q.items = append(q.items, Item[T]{Value: value, Priority: priority})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the item with the smallest priority.
// It panics when the queue is empty.
func (q *Queue[T]) Pop() (T, float64) {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.Value, top.Priority
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].Priority <= q.items[i].Priority {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.items[right].Priority < q.items[left].Priority {
			smallest = right
		}
		if q.items[i].Priority <= q.items[smallest].Priority {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
