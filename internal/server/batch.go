package server

// POST /batch: the batch-solving surface. One request carries up to
// maxBatchQueries queries sharing a cost function and method; the engine
// solves each one independently over one keyword-NN cache — the engine's
// -nn-cache, or one private to the batch (core/batch.go) — so answers stay
// bit-identical to per-query /query calls. Per-item failures (unknown
// keywords, infeasible queries) are
// reported in place; the batch itself only fails on malformed requests or
// server-level faults. The route sits behind the same admission
// middleware as /query: one batch holds one admission slot, so
// MaxInFlight bounds solving requests, not solving queries.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"coskq/internal/core"
	"coskq/internal/geo"
)

const (
	// maxBatchQueries bounds the queries one POST /batch may carry.
	maxBatchQueries = 1024
	// maxBatchBody bounds the request body (1 MiB holds maxBatchQueries
	// queries with room to spare).
	maxBatchBody = 1 << 20
	// maxBatchWorkers caps the per-request worker override.
	maxBatchWorkers = 32
)

type batchQueryJSON struct {
	X  float64  `json:"x"`
	Y  float64  `json:"y"`
	Kw []string `json:"kw"`
}

type batchRequest struct {
	Cost    string           `json:"cost"`
	Method  string           `json:"method"`
	Workers int              `json:"workers"`
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

// solveErrorString is the per-item form of writeSolveError: the same
// bounded message vocabulary, carried in the item instead of the status.
func solveErrorString(err error) string {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		return "query keywords cannot be covered"
	case errors.Is(err, core.ErrBudgetExceeded):
		return "query exceeded the server's search budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "query exceeded the server timeout"
	case errors.Is(err, context.Canceled):
		return "query cancelled"
	default:
		return err.Error()
	}
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
	workers := req.Workers
	if workers < 0 {
		workers = 0
	}
	if workers > maxBatchWorkers {
		workers = maxBatchWorkers
	}
	if err := serveFault(); err != nil {
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
		keywords, err := resolveKeywords(eng.DS.Vocab, keywordList(bq.Kw))
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
	out := s.requestEngine(ctx, eng).SolveBatchCtx(ctx, queries, cost, method, workers)
	degraded := false
	for j, item := range out {
		i := idx[j]
		if item.Err != nil {
			items[i] = batchItemJSON{Error: solveErrorString(item.Err)}
			continue
		}
		res := item.Result
		if res.Degraded {
			degraded = true
		}
		items[i] = batchItemJSON{
			Cost:     res.Cost,
			Objects:  s.objectsJSON(eng, queries[j], res.Set),
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
