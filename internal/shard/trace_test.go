package shard

import (
	"context"
	"fmt"
	"testing"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/metrics"
	"coskq/internal/trace"
)

// pinBackend builds the fixed 32-object shard the alloc guard pins its
// baseline against: three keywords spread over a small grid.
func pinBackend() *EngineBackend {
	b := dataset.NewBuilder("pin")
	words := []string{"cafe", "museum", "park"}
	for i := 0; i < 32; i++ {
		b.Add(geo.Point{X: float64(i % 8), Y: float64(i / 8)}, words[i%3])
	}
	return NewEngineBackend("pin", Shard{DS: b.Build()})
}

// TestShardServeTraceOffAllocs pins the allocation count of the shard
// serve path with tracing disabled: the instrumentation added for
// distributed tracing must stay branch-only when no trace is in the
// context. The pins are the measured values of the posting-list access
// path on this fixture — NN=1 (the hits slice), Collect=1 (the result
// slice; the in-disk postings fit the stack buffer) — down from 7 and 34
// for the IR-tree walk that built a []string per candidate. A regression
// here means a span name or attr expression escaped its tr != nil guard,
// or a per-candidate allocation came back.
func TestShardServeTraceOffAllocs(t *testing.T) {
	b := pinBackend()
	ctx := context.Background()
	q := ShardQuery{Loc: geo.Point{X: 2, Y: 2}, Words: []string{"cafe", "museum", "park"}}

	nn := testing.AllocsPerRun(200, func() {
		if _, err := b.NN(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if nn > 1 {
		t.Errorf("EngineBackend.NN allocates %.0f/op untraced, baseline 1", nn)
	}

	collect := testing.AllocsPerRun(200, func() {
		if _, err := b.Collect(ctx, q, 3); err != nil {
			t.Fatal(err)
		}
	})
	if collect > 1 {
		t.Errorf("EngineBackend.Collect allocates %.0f/op untraced, baseline 1", collect)
	}
}

// TestEngineBackendTracedSpans: with a trace in the context, the serve
// path records its anatomy — per-probe spans under nn_probes, a
// collect_scan span with the object count.
func TestEngineBackendTracedSpans(t *testing.T) {
	b := pinBackend()
	tr := trace.New("serve")
	ctx := trace.NewContext(context.Background(), tr)
	q := ShardQuery{Loc: geo.Point{X: 2, Y: 2}, Words: []string{"cafe", "absent-word"}}
	if _, err := b.NN(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Collect(ctx, q, 3); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	x := tr.Export()
	if x.UnclosedSpans != 0 {
		t.Fatalf("NN and Collect left %d spans open", x.UnclosedSpans)
	}
	if len(x.Spans) != 2 || x.Spans[0].Name != "nn_probes" || x.Spans[1].Name != "collect_scan" {
		t.Fatalf("serve spans = %+v", x.Spans)
	}
	nn := x.Spans[0]
	if nn.Attrs["keywords"] != 2 || nn.Attrs["found"] != 1 {
		t.Fatalf("nn_probes attrs = %v", nn.Attrs)
	}
	// A probe span is opened for a word the shard holds: the hit probe.
	if len(nn.Children) != 1 || nn.Children[0].Name != "probe" {
		t.Fatalf("probe children = %+v", nn.Children)
	}
	if x.Spans[1].Attrs["objects"] <= 0 {
		t.Fatalf("collect_scan attrs = %v", x.Spans[1].Attrs)
	}
}

// stitchFixture builds a 3-shard in-process router over disjoint
// districts plus a metrics registry.
func stitchFixture(t *testing.T, fanout int) (*Router, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	var backends []Backend
	for s := 0; s < 3; s++ {
		b := dataset.NewBuilder(fmt.Sprintf("district-%d", s))
		for i := 0; i < 6; i++ {
			w := []string{"cafe", "museum", "park"}[i%3]
			b.Add(geo.Point{X: float64(s*100 + i), Y: float64(i)}, w)
		}
		backends = append(backends, NewEngineBackend(fmt.Sprintf("shard-%d", s), Shard{DS: b.Build()}))
	}
	return &Router{Backends: backends, fanout: fanout, Metrics: NewMetrics(reg)}, reg
}

// TestRouterStitchedTrace: a traced RouteWords produces one tree with
// the coordinator's phases and, under each per-shard RPC span, the
// shard's own serve spans — the in-process half of the distributed
// stitch (the HTTP half rides the identical Trace.Graft path).
func TestRouterStitchedTrace(t *testing.T) {
	for _, fanout := range []int{1, 0} { // serial and concurrent schedules
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			rt, _ := stitchFixture(t, fanout)
			tr := trace.New("scatter")
			ctx := trace.NewContext(context.Background(), tr)
			ctx = trace.ContextWithSpanContext(ctx, trace.NewSpanContext())
			ans, err := rt.RouteWords(ctx, geo.Point{X: 50, Y: 3}, []string{"cafe", "museum", "park"}, core.MaxSum, core.OwnerExact)
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			x := tr.Export()
			if x.UnclosedSpans != 0 {
				t.Fatalf("stitched trace has %d spans left open", x.UnclosedSpans)
			}

			byName := map[string]*trace.SpanExport{}
			for _, s := range x.Spans {
				byName[s.Name] = s
			}
			for _, phase := range []string{"keyword_prune", "shard_nn", "mbr_prune", "shard_collect"} {
				if byName[phase] == nil {
					t.Fatalf("coordinator phase %q missing: %+v", phase, x.Spans)
				}
			}
			nnGroup := byName["shard_nn"]
			if len(nnGroup.Children) != 3 {
				t.Fatalf("shard_nn has %d RPC spans, want 3", len(nnGroup.Children))
			}
			seen := map[string]bool{}
			for _, rpc := range nnGroup.Children {
				seen[rpc.Name] = true
				// Under each RPC span: the shard's own nn_probes span.
				if len(rpc.Children) == 0 || rpc.Children[0].Name != "nn_probes" {
					t.Fatalf("RPC span %q has no stitched shard spans: %+v", rpc.Name, rpc.Children)
				}
			}
			for s := 0; s < 3; s++ {
				if !seen[fmt.Sprintf("nn:shard-%d", s)] {
					t.Fatalf("per-shard RPC span missing: %v", seen)
				}
			}

			// The breakdown mirrors the fan-out: 3 nn calls plus the
			// surviving collect calls, each tagged with shard and phase.
			if len(ans.Info.Calls) < 4 {
				t.Fatalf("Info.Calls = %+v", ans.Info.Calls)
			}
			nnCalls := 0
			for _, c := range ans.Info.Calls {
				if c.Phase == "nn" {
					nnCalls++
				}
				if c.Shard == "" || (c.Phase != "nn" && c.Phase != "collect") {
					t.Fatalf("malformed call record %+v", c)
				}
			}
			if nnCalls != 3 {
				t.Fatalf("%d nn calls recorded, want 3", nnCalls)
			}
		})
	}
}

// TestRouterUntracedNoCallSpans: without a trace in the context the
// router still records the per-shard breakdown (it feeds the slowlog).
func TestRouterUntracedNoCallSpans(t *testing.T) {
	rt, _ := stitchFixture(t, 0)
	ans, err := rt.RouteWords(context.Background(), geo.Point{X: 50, Y: 3}, []string{"cafe", "museum"}, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Info.Calls) == 0 {
		t.Fatal("untraced route recorded no calls")
	}
	for _, c := range ans.Info.Calls {
		if c.ElapsedMs < 0 {
			t.Fatalf("negative elapsed: %+v", c)
		}
	}
}

// TestRouterRPCMetrics: the labeled per-shard RPC series appear in the
// registry after a routed query.
func TestRouterRPCMetrics(t *testing.T) {
	rt, reg := stitchFixture(t, 0)
	tr := trace.New("scatter")
	ctx := trace.NewContext(context.Background(), tr)
	if _, err := rt.RouteWords(ctx, geo.Point{X: 50, Y: 3}, []string{"cafe", "museum", "park"}, core.MaxSum, core.OwnerExact); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	h := reg.Histogram(`coskq_shard_rpc_seconds{phase="nn",shard="shard-0"}`, rpcBuckets)
	if h.Count() == 0 {
		t.Fatal("rpc latency histogram not observed")
	}
}
