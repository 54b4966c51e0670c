// Package fault provides seeded, deterministic fault injection for the
// coskq engine and server. Production code calls Hit(point) at named
// injection points; by default the schedule is nil and Hit is a single
// atomic load. Tests (and chaos drills) call Arm with a seed and a set
// of rules to make specific points fire on a reproducible schedule —
// injecting latency, cancellations, budget trips, or panics — and the
// returned disarm func restores the no-op state.
//
// Determinism: a rule fires based only on (seed, point, per-rule hit
// ordinal), via a splitmix64-style hash. Two runs with the same seed,
// rules, and per-point hit sequence observe identical fault schedules.
// Concurrency can reorder which goroutine observes a firing, but the
// set of firing ordinals per point is fixed.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Point names an injection site. The registry of wired points lives in
// DESIGN.md §11; the constants below are the ones compiled into the
// engine and server.
type Point string

// Wired injection points.
const (
	RTreeVisit   Point = "rtree.visit"   // IR-tree iterator advance (irtree.Next)
	OwnerEnum    Point = "core.owner"    // owner enumeration loop in exact searches
	ServerHandle Point = "server.handle" // HTTP handler entry (query/topk)
	ShardFanout  Point = "shard.fanout"  // scatter-gather per-shard call body (shard.Router)
	NNCacheProbe Point = "core.nncache"  // cross-query keyword-NN cache consult (core.lookupNN)
	EpochApply   Point = "epoch.apply"   // before each op the epoch applier stages (epoch.Store)
	EpochSwap    Point = "epoch.swap"    // just before the atomic generation swap (epoch.Store)
	CompactRun   Point = "epoch.compact" // re-pack (bulk load of a fresh tree) inside the applier
)

// Kind is the effect a rule injects when it fires.
type Kind int

const (
	// KindLatency sleeps Rule.Latency at the injection point.
	KindLatency Kind = iota
	// KindCancel panics with Unwind{Kind: KindCancel}: the engine's
	// recover shield translates it into a context cancellation error.
	KindCancel
	// KindBudget panics with Unwind{Kind: KindBudget}: translated into
	// ErrBudgetExceeded, exercising the degrade path.
	KindBudget
	// KindPanic panics with Crash{}: a hard programming-error stand-in
	// that must NOT be swallowed by the engine (only by the server's
	// recover middleware or a test harness).
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindCancel:
		return "cancel"
	case KindBudget:
		return "budget"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Unwind is the panic payload for KindCancel/KindBudget firings. The
// engine's recoverBudget converts it into the matching typed error, so
// an armed fault surfaces to callers exactly like a real budget trip or
// cancellation.
type Unwind struct {
	Point Point
	Kind  Kind
}

func (u Unwind) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", u.Kind, u.Point)
}

// Crash is the panic payload for KindPanic firings. It deliberately
// does not implement error: nothing in the engine should recover it.
type Crash struct {
	Point Point
}

func (c Crash) String() string {
	return fmt.Sprintf("fault: injected panic at %s", c.Point)
}

// Rule schedules firings at one point. A rule fires on hit ordinal n
// (1-based, counted per rule) when n > After and:
//
//   - Every > 0 and (n-After) is a multiple of Every, or
//   - Every == 0 and Prob > 0 and the seeded hash of (seed, point, n)
//     falls below Prob.
//
// Every and Prob are mutually exclusive; if both are set Every wins.
// Count, when positive, caps the total number of firings — e.g.
// {After: k-1, Every: 1, Count: 1} fires exactly once, at hit k, the
// "kill exactly this call" shape the shard chaos suite replays.
type Rule struct {
	Point   Point
	Kind    Kind
	After   uint64        // skip the first After hits
	Every   uint64        // fire every Every-th hit past After (0 = use Prob)
	Prob    float64       // per-hit firing probability in [0,1] (seeded, deterministic)
	Count   uint64        // max firings (0 = unlimited)
	Latency time.Duration // sleep duration for KindLatency
}

type armedRule struct {
	Rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

type schedule struct {
	seed  uint64
	rules []*armedRule
	// byPoint indexes rules by point for the Hit fast path.
	byPoint map[Point][]*armedRule
}

var active atomic.Pointer[schedule]

// Arm installs a fault schedule, replacing any previous one, and
// returns a func that disarms it. Typical test usage:
//
//	defer fault.Arm(42, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, Every: 100})()
func Arm(seed uint64, rules ...Rule) (disarm func()) {
	s := &schedule{seed: seed, byPoint: make(map[Point][]*armedRule)}
	for _, r := range rules {
		ar := &armedRule{Rule: r}
		s.rules = append(s.rules, ar)
		s.byPoint[r.Point] = append(s.byPoint[r.Point], ar)
	}
	active.Store(s)
	return Disarm
}

// Disarm removes the active schedule; Hit returns to the single-load
// fast path.
func Disarm() {
	active.Store(nil)
}

// Armed reports whether a schedule is currently installed.
func Armed() bool {
	return active.Load() != nil
}

// Hits returns the total number of times point has been hit under the
// active schedule (max across its rules' counters; 0 when disarmed).
// For observability in tests.
func Hits(p Point) uint64 {
	s := active.Load()
	if s == nil {
		return 0
	}
	var max uint64
	for _, ar := range s.byPoint[p] {
		if h := ar.hits.Load(); h > max {
			max = h
		}
	}
	return max
}

// Hit records one pass through injection point p and fires any due
// rules. With no schedule armed (the production state) it is one atomic
// load.
func Hit(p Point) {
	s := active.Load()
	if s == nil {
		return
	}
	for _, ar := range s.byPoint[p] {
		n := ar.hits.Add(1)
		if !fires(s.seed, p, ar, n) {
			continue
		}
		if ar.Count > 0 && ar.fired.Add(1) > ar.Count {
			continue
		}
		switch ar.Kind {
		case KindLatency:
			time.Sleep(ar.Latency)
		case KindCancel, KindBudget:
			panic(Unwind{Point: p, Kind: ar.Kind})
		case KindPanic:
			panic(Crash{Point: p})
		}
	}
}

func fires(seed uint64, p Point, ar *armedRule, n uint64) bool {
	if n <= ar.After {
		return false
	}
	if ar.Every > 0 {
		return (n-ar.After)%ar.Every == 0
	}
	if ar.Prob <= 0 {
		return false
	}
	if ar.Prob >= 1 {
		return true
	}
	h := mix(seed ^ hashPoint(p) ^ n)
	// Map the top 53 bits onto [0,1).
	u := float64(h>>11) / (1 << 53)
	return u < ar.Prob
}

func hashPoint(p Point) uint64 {
	// FNV-1a, inlined to keep the package dependency-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// permutation so sequential ordinals decorrelate.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
