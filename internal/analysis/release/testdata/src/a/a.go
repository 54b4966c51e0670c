// Fixture for the spanend analyzer: balanced, escaping and leaking spans.
package a

import "trace"

func okDeferred(tr *trace.Trace) {
	sp := tr.Begin("phase")
	defer sp.End()
}

func okBranches(tr *trace.Trace, improved bool) {
	sp := tr.Begin("sub_search")
	if improved {
		sp.Attr("cost", 1)
		sp.End()
		return
	}
	sp.Drop()
}

func okEarlyReturn(tr *trace.Trace, ok bool) error {
	sp := tr.Begin("seed")
	if !ok {
		sp.End()
		return nil
	}
	sp.Attr("size", 2)
	sp.End()
	return nil
}

func okEscapesReturn(tr *trace.Trace) *trace.Span {
	sp := tr.Begin("handed_off")
	return sp
}

func okEscapesArg(tr *trace.Trace) {
	sp := tr.Begin("handed_off")
	closeLater(sp)
}

func closeLater(sp *trace.Span) { sp.End() }

func okNilGuard(tr *trace.Trace, improved bool) {
	sp := tr.Begin("sub_search")
	if sp != nil {
		if improved {
			sp.Attr("cost", 1)
			sp.End()
		} else {
			sp.Drop()
		}
	}
}

func okNilEarlyExit(tr *trace.Trace) {
	sp := tr.Begin("phase")
	if sp == nil {
		return
	}
	sp.End()
}

func badNilGuardLeak(tr *trace.Trace, improved bool) {
	sp := tr.Begin("sub_search") // want `span sp is not closed on all paths`
	if sp != nil && improved {
		sp.End()
	}
}

func badDiscarded(tr *trace.Trace) {
	tr.Begin("phase") // want `result of Begin is discarded`
}

func badBlank(tr *trace.Trace) {
	_ = tr.Begin("phase") // want `result of Begin is discarded`
}

func badLeakyBranch(tr *trace.Trace, infeasible bool) error {
	sp := tr.Begin("seed") // want `span sp is not closed on all paths`
	if infeasible {
		return nil
	}
	sp.End()
	return nil
}

func badNeverClosed(tr *trace.Trace) {
	sp := tr.Begin("phase") // want `span sp is not closed on all paths`
	sp.Attr("k", 1)
}

// Group spans carry the same obligation. The Router's scatter shape: a
// conditional Group.Begin into a pre-declared var, closed
// unconditionally later (all methods are nil-safe).
func okScatterShape(tr *trace.Trace, traced bool) {
	grp := tr.BeginGroup("shard_nn")
	var sp *trace.Span
	if traced {
		sp = grp.Begin("rpc")
	}
	sp.End()
	grp.End()
}

func okGroupDeferred(tr *trace.Trace) {
	grp := tr.BeginGroup("scatter")
	defer grp.End()
}

func badGroupLeak(tr *trace.Trace, failed bool) error {
	grp := tr.BeginGroup("shard_collect") // want `span grp is not closed on all paths`
	if failed {
		return nil
	}
	grp.End()
	return nil
}

func badGroupChildLeak(grp *trace.Group, failed bool) error {
	sp := grp.Begin("rpc") // want `span sp is not closed on all paths`
	if failed {
		return nil
	}
	sp.End()
	return nil
}

// A justified suppression silences the diagnostic.
func suppressedLeak(tr *trace.Trace) {
	//coskq:nolint(spanend) span closed by the trace's Finish sweep in this shutdown path
	sp := tr.Begin("shutdown")
	sp.Attr("k", 1)
}
