// Scatter-gather over HTTP. Every engine server mounts the shard data
// plane (/shard/meta, /shard/nn, /shard/collect) so it can serve as one
// shard of a fleet; a server over a shard.Router is the coordinator,
// whose /query fans out to them and whose /metrics?federate=1 merges
// their pages. The bodies are internal/shard's Wire* types, which
// shard.HTTPBackend decodes.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"coskq/internal/core"
	"coskq/internal/fault"
	"coskq/internal/kwds"
	"coskq/internal/metrics"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// DefaultFederateTimeout bounds the whole peer fan-out of a federated
// metrics scrape (GET /metrics?federate=1 on a scatter-gather
// coordinator).
const DefaultFederateTimeout = 2 * time.Second

// genBackend is a wrapped shard backend and the generation it wraps.
type genBackend struct {
	gen uint64
	b   *shard.EngineBackend
}

// shardBackendAt resolves the backend one shard data-plane call runs
// against, for the pin the handler holds. WrapEngine scans the dataset
// for the keyword summary, so the wrap is cached with its generation and
// redone only when a newer one is pinned; a static server's engine is
// generation 0, wrapped once. Reported ids are the pinned engine's own
// object ids. Calls that miss together each wrap; the cache keeps the
// newest generation's.
func (s *server) shardBackendAt(p pin) *shard.EngineBackend {
	c := s.shardB.Load()
	if c != nil && c.gen == p.gen {
		return c.b
	}
	fresh := &genBackend{gen: p.gen, b: shard.WrapEngine(p.eng.DS.Name, p.eng.DS, p.eng.Inv)}
	if c == nil || c.gen < p.gen {
		s.shardB.CompareAndSwap(c, fresh)
	}
	return fresh.b
}

// beginShardTrace starts a local trace for a shard data-plane call when
// — and only when — the caller propagated a valid traceparent: the
// shard then records its search anatomy and returns the export as a
// fragment. Without the header the call runs untraced, preserving the
// serve path's zero-allocation instrumentation cost.
func beginShardTrace(r *http.Request) (context.Context, *trace.Trace) {
	if _, ok := trace.ParseTraceparent(r.Header.Get("Traceparent")); !ok {
		return r.Context(), nil
	}
	tr := trace.New("serve")
	return trace.NewContext(r.Context(), tr), tr
}

// fragment finishes a shard call's trace and renders it as the body's
// trace fragment; nil (no key) when the call was untraced. An export
// that fails to encode is left out the same way: telemetry never fails
// the data-plane call that carries it.
func fragment(tr *trace.Trace) json.RawMessage {
	if tr == nil {
		return nil
	}
	tr.Finish()
	raw, _ := json.Marshal(tr.Export())
	return raw
}

func (s *server) handleShardMeta(w http.ResponseWriter, r *http.Request, p pin) {
	b := s.shardBackendAt(p)
	m, _ := b.Meta(r.Context())
	resp := shard.WireMeta{Name: m.Name, Objects: m.Objects, Summary: m.Summary.Encode(), Gen: p.gen}
	if m.Objects == 0 {
		resp.Empty = true
	} else {
		resp.MinX, resp.MinY = m.MBR.MinX, m.MBR.MinY
		resp.MaxX, resp.MaxY = m.MBR.MaxX, m.MBR.MaxY
	}
	writeJSON(w, resp)
}

// parseShardParams extracts the shard query (location + keyword
// strings). Unlike on /query, unknown keywords are NOT an error here —
// a shard is expected to lack most of the fleet's vocabulary, and the
// Backend contract resolves unknown words to "not found".
func parseShardParams(r *http.Request) (shard.ShardQuery, error) {
	q := r.URL.Query()
	loc, err := parseLoc(q)
	if err != nil {
		return shard.ShardQuery{}, err
	}
	words := splitKeywords(q.Get("kw"))
	if len(words) == 0 {
		return shard.ShardQuery{}, errors.New("provide kw=a,b,c")
	}
	// A word's position is its bit in the candidates' coverage masks, so
	// the limit is checked here, before any mask is computed.
	if len(words) > kwds.MaxQueryKeywords {
		return shard.ShardQuery{}, fmt.Errorf("kw lists %d keywords, at most %d are accepted", len(words), kwds.MaxQueryKeywords)
	}
	return shard.ShardQuery{Loc: loc, Words: words}, nil
}

func (s *server) handleShardNN(w http.ResponseWriter, r *http.Request, p pin) {
	sq, err := parseShardParams(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := core.HitFault(fault.ServerHandle); err != nil {
		writeSolveError(w, err)
		return
	}
	ctx, tr := beginShardTrace(r)
	b := s.shardBackendAt(p)
	res, err := b.NN(ctx, sq)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	resp := shard.WireNN{Gen: p.gen, Hits: make([]shard.WireHit, len(res.Hits))}
	for i, h := range res.Hits {
		if h.Found {
			resp.Hits[i] = shard.WireHit{Found: true, WireObject: wireObject(b, h.Cand), Dist: h.Dist}
		}
	}
	resp.Trace = fragment(tr)
	writeJSON(w, resp)
}

func (s *server) handleShardCollect(w http.ResponseWriter, r *http.Request, p pin) {
	sq, err := parseShardParams(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	radius, err := strconv.ParseFloat(r.URL.Query().Get("r"), 64)
	if err != nil || radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		jsonError(w, http.StatusBadRequest, "r must be a non-negative finite number")
		return
	}
	if err := core.HitFault(fault.ServerHandle); err != nil {
		writeSolveError(w, err)
		return
	}
	ctx, tr := beginShardTrace(r)
	b := s.shardBackendAt(p)
	res, err := b.Collect(ctx, sq, radius)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	resp := shard.WireCollect{Gen: p.gen, Objects: make([]shard.WireObject, len(res.Objects))}
	for i, c := range res.Objects {
		resp.Objects[i] = wireObject(b, c)
	}
	resp.Trace = fragment(tr)
	writeJSON(w, resp)
}

// wireObject renders a candidate for the wire. The wire carries full
// keyword lists; this is where an in-process candidate's strings are
// first needed.
func wireObject(b *shard.EngineBackend, c shard.Candidate) shard.WireObject {
	b.Hydrate(&c)
	return shard.WireObject{ID: uint32(c.GID), X: c.Loc.X, Y: c.Loc.Y, Keywords: c.Words}
}

// federate serves GET /metrics?federate=1 on a coordinator: the local
// registry's page merged with every backend implementing
// shard.MetricsFetcher, each peer's samples labeled with its shard name.
// Peer fetches run concurrently under DefaultFederateTimeout; a failed
// peer contributes a comment line and a coordinator-side error counter,
// never a scrape failure.
func (s *server) federate(w http.ResponseWriter, r *http.Request) {
	rt := s.router
	ctx, cancel := context.WithTimeout(r.Context(), DefaultFederateTimeout)
	defer cancel()
	pages := make([]metrics.MergePage, 1, len(rt.Backends)+1)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i, b := range rt.Backends {
		mf, ok := b.(shard.MetricsFetcher)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(ord int, name string, mf shard.MetricsFetcher) {
			defer wg.Done()
			text, err := mf.FetchMetrics(ctx)
			if err != nil {
				s.reg.Counter(fmt.Sprintf("coskq_federate_peer_errors_total{shard=%q}", name)).Inc()
			}
			mu.Lock()
			pages = append(pages, metrics.MergePage{Source: name, Text: text, Err: err})
			mu.Unlock()
		}(i, b.Name(), mf)
	}
	wg.Wait()
	// Snapshot the local page after the fan-out so this scrape's own
	// peer-fetch error counters are already visible in it.
	var local bytes.Buffer
	s.reg.WriteText(&local)
	pages[0] = metrics.MergePage{Text: local.Bytes()}
	// Peer pages arrive in completion order; restore backend order so
	// the merged exposition is deterministic for a fixed fleet.
	peers := pages[1:]
	ordinal := make(map[string]int, len(rt.Backends))
	for i, b := range rt.Backends {
		ordinal[b.Name()] = i
	}
	for i := 1; i < len(peers); i++ {
		for j := i; j > 0 && ordinal[peers[j].Source] < ordinal[peers[j-1].Source]; j-- {
			peers[j], peers[j-1] = peers[j-1], peers[j]
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.MergeText(w, pages)
}
