package server

// POST /objects and POST /objects/stream: the mutation surface of a
// live (epoch-backed) server. /objects accepts one JSON batch of
// insert/delete/edit ops, validates it against the store's logical
// table and enqueues it as one delta — per-item errors ride in the
// response in the same vocabulary as /batch, and a client-generated
// sequence token makes retries after a dropped response apply at most
// once. /objects/stream is the ingest mode: NDJSON, one op per line,
// applied in bounded batches so an arbitrarily long stream never holds
// an unbounded buffer; the response is a one-line summary. Neither
// route sits behind the admission controller — a mutation only
// validates and enqueues, and the store's bounded backlog (429) is the
// write path's overload control.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"coskq/internal/epoch"
	"coskq/internal/geo"
)

const (
	// maxObjectsBody bounds the POST /objects request body.
	maxObjectsBody = 1 << 20
	// maxObjectsOps bounds the ops one POST /objects batch may carry.
	maxObjectsOps = 4096
	// streamBatchOps is how many NDJSON ops /objects/stream accumulates
	// before applying them as one delta.
	streamBatchOps = 256
	// maxStreamLine bounds one NDJSON line.
	maxStreamLine = 1 << 16
)

// objectOpJSON is one mutation op on the wire. Key is a pointer so
// "key present" (explicit identity) and "key absent" (assign one) are
// distinguishable on inserts.
type objectOpJSON struct {
	Op  string   `json:"op"`
	Key *uint64  `json:"key,omitempty"`
	X   float64  `json:"x"`
	Y   float64  `json:"y"`
	Kw  []string `json:"kw,omitempty"`
}

type objectsRequest struct {
	// Seq is the client-generated idempotency token: a retried batch
	// carrying the same token applies at most once, the replay returning
	// the recorded per-item statuses.
	Seq string         `json:"seq,omitempty"`
	Ops []objectOpJSON `json:"ops"`
}

type objectResultJSON struct {
	Key   uint64 `json:"key"`
	Error string `json:"error,omitempty"`
}

type objectsResponse struct {
	// Gen is the generation current when the batch was accepted; the
	// ops become visible at a later swap (the write path is async).
	Gen      uint64             `json:"gen"`
	Replayed bool               `json:"replayed,omitempty"`
	Results  []objectResultJSON `json:"results"`
}

func opFromJSON(j objectOpJSON) epoch.Op {
	op := epoch.Op{Kind: epoch.OpKind(j.Op), Loc: geo.Point{X: j.X, Y: j.Y}, Words: j.Kw}
	if j.Key != nil {
		op.Key = *j.Key
		op.HasKey = true
	}
	return op
}

// writeMutateError maps the store's batch-level errors onto statuses:
// a full backlog is the write path's load shed (429 + Retry-After), a
// closed store is shutting down (503).
func writeMutateError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, epoch.ErrBacklogFull):
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, "mutation backlog full, retry later")
	case errors.Is(err, epoch.ErrClosed):
		jsonError(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
		jsonError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *server) handleObjects(w http.ResponseWriter, r *http.Request) {
	var req objectsRequest
	if err := decodeBody(w, r, maxObjectsBody, &req); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid objects body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		jsonError(w, http.StatusBadRequest, "batch carries no ops")
		return
	}
	if len(req.Ops) > maxObjectsOps {
		jsonError(w, http.StatusBadRequest, "batch carries %d ops, limit %d", len(req.Ops), maxObjectsOps)
		return
	}
	ops := make([]epoch.Op, len(req.Ops))
	for i, j := range req.Ops {
		ops[i] = opFromJSON(j)
	}
	statuses, replayed, err := s.store.ApplyBatchSeq(req.Seq, ops)
	if err != nil {
		writeMutateError(w, err)
		return
	}
	resp := objectsResponse{Gen: s.store.Current(), Replayed: replayed, Results: make([]objectResultJSON, len(statuses))}
	for i, st := range statuses {
		resp.Results[i] = objectResultJSON{Key: st.Key, Error: st.Err}
	}
	writeJSON(w, resp)
}

// streamSummaryJSON is the /objects/stream response: totals plus the
// first few per-item errors (the stream's lines are positional, so
// Line identifies the offending op).
type streamSummaryJSON struct {
	Gen      uint64            `json:"gen"`
	Accepted int               `json:"accepted"`
	Rejected int               `json:"rejected"`
	Errors   []streamErrorJSON `json:"errors,omitempty"`
}

type streamErrorJSON struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

const maxStreamErrors = 32

func (s *server) handleObjectsStream(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 4096), maxStreamLine)
	var (
		batch   []epoch.Op
		lines   []int // request line number of each op in batch
		line    int
		sum     streamSummaryJSON
		bailErr error
	)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		statuses, err := s.store.ApplyBatch(batch)
		if err != nil {
			bailErr = err
			return false
		}
		for i, st := range statuses {
			if st.Err == "" {
				sum.Accepted++
				continue
			}
			sum.Rejected++
			if len(sum.Errors) < maxStreamErrors {
				sum.Errors = append(sum.Errors, streamErrorJSON{Line: lines[i], Error: st.Err})
			}
		}
		batch = batch[:0]
		lines = lines[:0]
		return true
	}
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var j objectOpJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			sum.Rejected++
			if len(sum.Errors) < maxStreamErrors {
				sum.Errors = append(sum.Errors, streamErrorJSON{Line: line, Error: fmt.Sprintf("bad line: %v", err)})
			}
			continue
		}
		batch = append(batch, opFromJSON(j))
		lines = append(lines, line)
		if len(batch) >= streamBatchOps && !flush() {
			break
		}
	}
	if bailErr == nil {
		if err := sc.Err(); err != nil {
			jsonError(w, http.StatusBadRequest, "stream read: %v", err)
			return
		}
		flush()
	}
	if bailErr != nil {
		// Partial progress is already durable in the store; report what
		// was applied so far alongside the shed/shutdown status.
		w.Header().Set("X-Coskq-Stream-Accepted", strconv.Itoa(sum.Accepted))
		writeMutateError(w, bailErr)
		return
	}
	sum.Gen = s.store.Current()
	writeJSON(w, sum)
}
