package release

import (
	"go/types"

	"coskq/internal/analysis/lintutil"
)

// The three rows. Each Name, diagnostic text and //coskq:nolint(name)
// spelling is part of the suite's interface (fixtures, CI logs and the
// suppressions in the tree spell them out).
var (
	// Spanend: an unbalanced span corrupts the open-span stack of the
	// per-query trace — every later span nests under the leaked one and
	// the EXPLAIN tree misattributes all subsequent time. Trace.Finish
	// papers over leaks at the root; per-phase attribution is silently
	// wrong.
	Spanend = spanend.analyzer()
	// Poolscratch: the pinned alloc guards hold only while the scratch
	// pools recycle. A Get that misses its Put on one early return
	// crashes nothing — it regrows the heap until the guards flake; an
	// object that escapes to a global or a channel can be recycled while
	// another goroutine still holds it, which is a data race.
	Poolscratch = poolscratch.analyzer()
	// Epochpin: a pin is a refcount, not a lock. A leaked pin never
	// deadlocks or crashes — it keeps a dead generation's IR-tree and
	// inverted index alive forever and the pinned-readers gauge drifts
	// upward, while every query still answers correctly: invisible to
	// tests, hence machine-checked.
	Epochpin = epochpin.analyzer()
)

var spanend = &spec{
	name: "spanend",
	doc: `check that every trace span from Begin is closed on all paths

Each result of (*trace.Trace).Begin, (*trace.Trace).BeginGroup or
(*trace.Group).Begin must have End or Drop called on every control-flow
path from the Begin to a return, normally by "defer sp.End()".
Discarding the result, or returning on a path that never closes the
span, corrupts the per-query trace's span stack. Passing the span to
another function, storing it, sending it or returning it transfers the
obligation and satisfies the check. Paths on which the span is
statically nil (guarded by sp == nil / sp != nil) carry no obligation:
all span methods are nil-safe and a disabled span needs no close. Test
files are exempt.`,
	// Matched by import-path base "trace" so the fixture package
	// qualifies: Trace.Begin, the race-safe Group.Begin of the Router's
	// scatter, and BeginGroup (a Group is End-ed too).
	acquire: func(fn *types.Func) bool {
		return lintutil.IsMethodOn(fn, "trace", "Trace", "Begin") ||
			lintutil.IsMethodOn(fn, "trace", "Trace", "BeginGroup") ||
			lintutil.IsMethodOn(fn, "trace", "Group", "Begin")
	},
	methods:      []string{"End", "Drop"},
	argTransfers: true,
	nilFree:      true,
	discarded:    "result of Begin is discarded: the span is never ended (use End/Drop, normally deferred)",
	leaked:       "span %s is not closed on all paths (missing End/Drop before the return at line %d)",
}

var poolscratch = &spec{
	name: "poolscratch",
	doc: `check sync.Pool Get/Put balance and pooled-object containment

Every value acquired from a sync.Pool — directly via (*sync.Pool).Get or
through a same-package acquirer wrapper (a function that returns what it
Gets, the getOwnerScratch shape) — must be released (Put, or a
same-package releaser wrapper that Puts its parameter) on every
control-flow path through the acquiring function, normally by a deferred
release so panic-unwind is covered too. Returning the object or storing
it into a struct transfers the obligation to the new owner and satisfies
the check. Discarding a Get result, or letting the object reach a
package-level variable or a channel, is reported: a pooled object with
an untracked holder can be recycled while still referenced, which is a
data race. Test files are exempt.`,
	acquire:      func(fn *types.Func) bool { return lintutil.IsMethodOn(fn, "sync", "Pool", "Get") },
	releaseFn:    func(fn *types.Func) bool { return lintutil.IsMethodOn(fn, "sync", "Pool", "Put") },
	wrappers:     true,
	discarded:    "pooled object is discarded: a Get with no holder can never be Put back",
	leaked:       "pooled object %s is not returned to the pool on all paths (missing Put before the return at line %d); prefer a deferred release so panic-unwind is covered too",
	escapeGlobal: "pooled object %s escapes to package-level %s: it can be recycled while still referenced",
	escapeChan:   "pooled object %s escapes into a channel: it can be recycled while still referenced",
}

var epochpin = &spec{
	name: "epochpin",
	doc: `check that pinned epoch generations are unpinned on all paths

Every call to a method named Pin whose result type has an Unpin method
(the epoch.Store snapshot shape) must be balanced: the returned handle
is either Unpinned on every control-flow path through the acquiring
function — normally by a deferred Unpin so panic-unwind is covered —
or transferred to a new owner by returning it (or its Unpin method
value), storing it into a struct, or sending it on a channel.
Discarding the handle is reported: an unreachable pin is never
released, so the gauge that shows operators long-lived pins counts it
for ever. Test files are exempt; a
deliberately long-lived pin takes a //coskq:nolint(epochpin) with a
reason.`,
	// Matched structurally — a callee named Pin whose single result has
	// an Unpin method — so wrappers (the server's per-request handle) and
	// fixtures qualify without depending on the epoch package.
	acquire: func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		if fn.Name() != "Pin" || sig.Results().Len() != 1 {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(sig.Results().At(0).Type(), true, fn.Pkg(), "Unpin")
		_, isMethod := obj.(*types.Func)
		return isMethod
	},
	methods:   []string{"Unpin"},
	discarded: "pinned generation is discarded: a pin with no holder is never unpinned, so the generation can never be reclaimed",
	leaked:    "pinned generation %[1]s is not unpinned on all paths (missing Unpin before the return at line %[2]d); prefer defer %[1]s.Unpin() so panic-unwind is covered too",
}
