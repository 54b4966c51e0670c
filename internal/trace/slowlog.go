package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one retained slow query: what ran, how long it took, its
// answer's effort — the counters under the names ?explain=1 puts on its
// spans, the phases, the prune counters and the degrade reason — and,
// when the execution was traced, the full trace. Distributed queries
// carry a per-shard RPC breakdown so a slow scatter-gather entry answers
// "which shard was slow" without a trace.
type Entry struct {
	Time          time.Time        `json:"time"`
	ID            string           `json:"id,omitempty"` // request id, when served over HTTP
	Query         string           `json:"query"`        // human-readable query description
	ElapsedMs     float64          `json:"elapsedMs"`
	Err           string           `json:"error,omitempty"`
	OwnersTried   int              `json:"owners_tried"`
	SetsEvaluated int              `json:"sets_evaluated"`
	Nodes         int              `json:"nodes"`
	Candidates    int              `json:"candidates"`
	SeedUs        float64          `json:"seedUs"`
	MaterializeUs float64          `json:"materializeUs"`
	SearchUs      float64          `json:"searchUs"`
	Prunes        map[string]int64 `json:"prunes,omitempty"` // PruneCounts.Map
	DegradeReason string           `json:"degradeReason,omitempty"`
	Shards        []ShardCall      `json:"shards,omitempty"`
	Trace         *Export          `json:"trace,omitempty"`
}

// ShardCall is one per-shard RPC of a distributed query: which shard,
// which data-plane phase, how long the call took, and how it failed (if
// it did).
type ShardCall struct {
	Shard     string  `json:"shard"`
	Phase     string  `json:"phase"` // "nn" or "collect"
	ElapsedMs float64 `json:"elapsedMs"`
	Err       string  `json:"error,omitempty"`
}

// SlowLog retains the k slowest recently observed query executions in a
// fixed-capacity, mutex-protected buffer: Observe replaces the current
// fastest retained entry once the buffer is full, so memory stays bounded
// no matter the request rate. The log keeps the elapsed time of that
// fastest entry, so Admits answers without the mutex and Observe rescans
// the buffer only when it replaces an entry. Safe for concurrent use.
type SlowLog struct {
	mu      sync.Mutex
	cap     int
	entries []Entry
	fastest int // index of the first entry of least ElapsedMs, once full
	// floor holds the math.Float64bits of entries[fastest].ElapsedMs once
	// the buffer is full, and of -Inf before.
	floor atomic.Uint64
}

// NewSlowLog returns a log retaining the k slowest entries (k ≥ 1).
func NewSlowLog(k int) *SlowLog {
	if k < 1 {
		k = 1
	}
	l := &SlowLog{cap: k}
	l.floor.Store(math.Float64bits(math.Inf(-1)))
	return l
}

// Cap returns the retention capacity.
func (l *SlowLog) Cap() int { return l.cap }

// Admits reports whether an execution of elapsedMs would be retained if
// offered now: a caller that builds its Entry only when this holds
// skips that work for the executions the log would drop. A concurrent
// Observe may change the answer before the caller's own Observe.
func (l *SlowLog) Admits(elapsedMs float64) bool {
	return elapsedMs > math.Float64frombits(l.floor.Load())
}

// Observe offers one finished execution. It is retained when the buffer
// has room or when it is slower than the fastest retained entry.
func (l *SlowLog) Observe(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, e)
		if len(l.entries) == l.cap {
			l.rescan()
		}
		return
	}
	if e.ElapsedMs > l.entries[l.fastest].ElapsedMs {
		l.entries[l.fastest] = e
		l.rescan()
	}
}

// rescan finds the first entry of least elapsed time in the full buffer
// — the one the next admitted execution replaces — and publishes its
// time as the admission floor.
func (l *SlowLog) rescan() {
	f := 0
	for i := 1; i < len(l.entries); i++ {
		if l.entries[i].ElapsedMs < l.entries[f].ElapsedMs {
			f = i
		}
	}
	l.fastest = f
	l.floor.Store(math.Float64bits(l.entries[f].ElapsedMs))
}

// Snapshot returns the retained entries, slowest first.
func (l *SlowLog) Snapshot() []Entry {
	l.mu.Lock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	l.mu.Unlock()
	// Insertion sort, descending by elapsed: the buffer is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ElapsedMs > out[j-1].ElapsedMs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
