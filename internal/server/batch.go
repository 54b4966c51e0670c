package server

// POST /batch: the batch-solving surface. One request carries up to
// maxBatchQueries queries sharing a cost function and method; the engine
// solves each one independently, on GOMAXPROCS goroutines, over one
// keyword-NN cache — the engine's -nn-cache, or one private to the batch
// (core/batch.go) — so answers stay bit-identical to per-query /query
// calls. Per-item failures (unknown keywords, infeasible queries) are
// reported in place; the batch itself only fails on malformed requests or
// server-level faults. The route sits behind the same admission
// middleware as /query: one batch holds one admission slot, so
// MaxInFlight bounds solving requests, not solving queries.

import (
	"encoding/json"
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
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
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
	// One pin covers the whole batch: keyword resolution, the solve and
	// answer rendering all see the same generation.
	eng := p.eng

	// Per-item keyword resolution: an unresolvable query fails in place
	// without poisoning the batch. Valid queries keep their request
	// positions through idx so the engine's batch sees only them.
	items := make([]batchItemJSON, len(req.Queries))
	queries := make([]core.Query, 0, len(req.Queries))
	idx := make([]int, 0, len(req.Queries))
	for i, bq := range req.Queries {
		keywords, err := eng.ResolveWords(keywordList(bq.Kw))
		if err != nil {
			items[i] = batchItemJSON{Error: err.Error()}
			continue
		}
		if keywords.IsEmpty() {
			items[i] = batchItemJSON{Error: "query carries no keywords"}
			continue
		}
		queries = append(queries, core.Query{Loc: geo.Point{X: bq.X, Y: bq.Y}, Keywords: keywords})
		idx = append(idx, i)
	}

	ctx := r.Context()
	start := time.Now()
	out := eng.SolveBatchCtx(ctx, queries, cost, method, 0)
	degraded := false
	for j, item := range out {
		i := idx[j]
		if item.Err != nil {
			_, msg := solveError(item.Err)
			items[i] = batchItemJSON{Error: msg}
			continue
		}
		res := item.Result
		if res.Degraded {
			degraded = true
		}
		items[i] = batchItemJSON{
			Cost:     res.Cost,
			Objects:  objectsJSON(queries[j].Loc, eng.Members(res.Set)),
			Degraded: res.Degraded,
			Reason:   string(res.Stats.DegradeReason),
		}
	}
	if degraded {
		w.Header().Set("X-Coskq-Degraded", "batch")
	}
	writeJSON(w, batchResponse{
		CostKind:  cost.String(),
		Method:    method.String(),
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
		Results:   items,
	})
}
