package server

// POST /batch: the batch-solving surface, mounted over every solver. One
// request carries up to maxBatchQueries queries sharing a cost function
// and method; each is the SolveWords call /query makes, run on
// core.SolveWordsBatch's worker pool. On an engine or a live store the
// batch solves on the one generation pinned for the request, over one
// keyword-NN cache — the engine's -nn-cache, or one private to the batch
// (core/batch.go) — so answers stay bit-identical to per-query /query
// calls; on a coordinator each item is one routed query. Per-item
// failures (unknown keywords, infeasible queries) are reported in place;
// the batch itself only fails on malformed requests or server-level
// faults. The route sits behind the same admission middleware as /query:
// one batch holds one admission slot, so MaxInFlight bounds solving
// requests, not solving queries.

import (
	"net/http"
	"time"

	"coskq/internal/core"
	"coskq/internal/fault"
	"coskq/internal/geo"
)

const (
	// maxBatchQueries bounds the queries one POST /batch may carry.
	maxBatchQueries = 1024
	// maxBatchBody bounds the request body (1 MiB holds maxBatchQueries
	// queries with room to spare).
	maxBatchBody = 1 << 20
)

type batchQueryJSON struct {
	X  float64  `json:"x"`
	Y  float64  `json:"y"`
	Kw []string `json:"kw"`
}

type batchRequest struct {
	Cost    string           `json:"cost"`
	Method  string           `json:"method"`
	Queries []batchQueryJSON `json:"queries"`
}

type batchItemJSON struct {
	Cost     float64      `json:"cost,omitempty"`
	Objects  []objectJSON `json:"objects,omitempty"`
	Degraded bool         `json:"degraded,omitempty"`
	Reason   string       `json:"degradeReason,omitempty"`
	Error    string       `json:"error,omitempty"`
}

type batchResponse struct {
	CostKind  string          `json:"costKind"`
	Method    string          `json:"method"`
	ElapsedMs float64         `json:"elapsedMs"`
	Results   []batchItemJSON `json:"results"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, p pin) {
	var req batchRequest
	if err := decodeBody(w, r, maxBatchBody, &req); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid batch body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		jsonError(w, http.StatusBadRequest, "batch carries no queries")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		jsonError(w, http.StatusBadRequest, "batch carries %d queries, limit %d", len(req.Queries), maxBatchQueries)
		return
	}
	cost, err := costByName(req.Cost)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	method, err := methodByName(req.Method)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := core.HitFault(fault.ServerHandle); err != nil {
		writeSolveError(w, err)
		return
	}
	// A live server solves the whole batch on the generation pinned for
	// it, so no item sees a write an earlier one did not.
	var sv core.Solver = s.solver
	if p.eng != nil {
		sv = p.eng
	}
	queries := make([]core.WordQuery, len(req.Queries))
	for i, bq := range req.Queries {
		queries[i] = core.WordQuery{Loc: geo.Point{X: bq.X, Y: bq.Y}, Words: keywordList(bq.Kw)}
	}

	start := time.Now()
	out := core.SolveWordsBatch(r.Context(), sv, queries, cost, method, 0)
	items := make([]batchItemJSON, len(out))
	degraded := false
	for i, ans := range out {
		if ans.Err != nil {
			_, msg := solveError(ans.Err)
			items[i] = batchItemJSON{Error: msg}
			continue
		}
		degraded = degraded || ans.Degraded
		items[i] = batchItemJSON{
			Cost:     ans.Cost,
			Objects:  objectsJSON(queries[i].Loc, ans.Members),
			Degraded: ans.Degraded,
			Reason:   string(ans.Stats.DegradeReason),
		}
	}
	if degraded {
		w.Header().Set("X-Coskq-Degraded", "batch")
	}
	resp := batchResponse{
		CostKind:  cost.String(),
		Method:    method.String(),
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		Results:   items,
	}
	bb := bodyPool.Get().(*bodyBuf)
	bb.b, err = resp.appendJSON(bb.b)
	writeBody(w, bb, err)
}
