// Fixture for the ctxpoll analyzer: search loops that do and do not
// poll the node budget / cancellation context.
package core

import (
	"context"

	"fault"
	"irtree"
	"pqueue"
)

type Stats struct{ NodesExpanded, CandidatesSeen int }

type Engine struct{ ctx context.Context }

func (e *Engine) chargeNode(stats *Stats) {
	stats.NodesExpanded++
	if e.ctx != nil && stats.NodesExpanded&255 == 0 && e.ctx.Err() != nil {
		panic("canceled")
	}
}

func (e *Engine) pollCancel(counter int) {
	if e.ctx != nil && counter&255 == 0 && e.ctx.Err() != nil {
		panic("canceled")
	}
}

func (e *Engine) bestWithOwner(stats *Stats) float64 {
	e.chargeNode(stats)
	return 0
}

func (e *Engine) okPollDirect(it *irtree.RelevantNNIterator) {
	stats := &Stats{}
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		stats.CandidatesSeen++
		e.pollCancel(stats.CandidatesSeen)
	}
}

func (e *Engine) okChargeViaHelper(it *irtree.RelevantNNIterator) {
	stats := &Stats{}
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		e.bestWithOwner(stats)
	}
}

func (e *Engine) okCtxCheck(it *irtree.RelevantNNIterator) {
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		if e.ctx != nil && e.ctx.Err() != nil {
			return
		}
	}
}

func (e *Engine) okQueue(q *pqueue.Queue, stats *Stats) int {
	n := 0
	for q.Len() > 0 {
		v, _ := q.Pop()
		n += v
		e.chargeNode(stats)
	}
	return n
}

func (e *Engine) badIterator(it *irtree.RelevantNNIterator) int {
	n := 0
	for {
		_, _, ok := it.Next() // want `search loop expands nodes but never polls`
		if !ok {
			break
		}
		n++
	}
	return n
}

func (e *Engine) badQueue(q *pqueue.Queue) int {
	n := 0
	for q.Len() > 0 {
		v, _ := q.Pop() // want `search loop expands nodes but never polls`
		n += v
	}
	return n
}

// plainLoop expands nothing: no obligation.
func (e *Engine) plainLoop(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// runTask is a worker-pool task helper whose polling sits inside a
// recover-wrapped closure — the pre-scan must still classify it as
// polling.
func (e *Engine) runTask(stats *Stats) {
	func() {
		defer func() { recover() }()
		e.chargeNode(stats)
	}()
}

// okWorkerClosure: the producer loop polls inside a deferred/spawned
// closure (the parallel-search producer pattern).
func (e *Engine) okWorkerClosure(it *irtree.RelevantNNIterator, tasks chan<- int) {
	stats := &Stats{}
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		stats.CandidatesSeen++
		func() {
			defer func() { recover() }()
			e.pollCancel(stats.CandidatesSeen)
		}()
		tasks <- stats.CandidatesSeen
	}
}

// okWorkerHelper: the loop discharges its obligation through a helper
// that polls inside its own closure.
func (e *Engine) okWorkerHelper(it *irtree.RelevantNNIterator) {
	stats := &Stats{}
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		e.runTask(stats)
	}
}

// badFaultHitOnly: a fault-injection point is not a cancellation poll —
// with no schedule armed fault.Hit does nothing, so a loop that only
// hits an injection point still runs unbounded and must be flagged.
func (e *Engine) badFaultHitOnly(it *irtree.RelevantNNIterator) int {
	n := 0
	for {
		fault.Hit(fault.RTreeVisit)
		_, _, ok := it.Next() // want `search loop expands nodes but never polls`
		if !ok {
			break
		}
		n++
	}
	return n
}

// okFaultHitPlusPoll: the injection point rides along with a real poll.
func (e *Engine) okFaultHitPlusPoll(it *irtree.RelevantNNIterator) {
	stats := &Stats{}
	for {
		fault.Hit(fault.OwnerEnum)
		_, _, ok := it.Next()
		if !ok {
			break
		}
		stats.CandidatesSeen++
		e.pollCancel(stats.CandidatesSeen)
	}
}

// badWorkerNoPoll: fanning work out to a channel does not poll — the
// producer loop itself must charge or poll.
func (e *Engine) badWorkerNoPoll(it *irtree.RelevantNNIterator, tasks chan<- int) {
	n := 0
	for {
		_, _, ok := it.Next() // want `search loop expands nodes but never polls`
		if !ok {
			break
		}
		n++
		tasks <- n
	}
}
