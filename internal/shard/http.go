package shard

import (
	"context"
	"encoding/json"

	"coskq/internal/client"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// HTTPBackend serves one shard from a remote coskq-server over the
// /shard/* data-plane endpoints, with the client's retry/backoff
// applied per call — a shard shedding load (429) is retried within the
// call's deadline before the router counts it as failed. Candidate ids
// are shard-local (unique per shard, not globally), which the router's
// (shard, id) keying accommodates.
type HTTPBackend struct {
	C *client.Client
}

// NewHTTPBackend returns a backend calling the shard server at base
// (e.g. "http://10.0.0.7:8080").
func NewHTTPBackend(c *client.Client) *HTTPBackend { return &HTTPBackend{C: c} }

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.C.Base }

// Meta implements Backend.
func (b *HTTPBackend) Meta(ctx context.Context) (Meta, error) {
	m, err := b.C.ShardMeta(ctx)
	if err != nil {
		return Meta{}, err
	}
	sum, err := DecodeSummary(m.Summary)
	if err != nil {
		return Meta{}, err
	}
	mbr := geo.EmptyRect()
	if !m.Empty {
		mbr = geo.Rect{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY}
	}
	return Meta{Name: m.Name, Objects: m.Objects, MBR: mbr, Summary: sum, Gen: m.Gen}, nil
}

// attachFragment validates a shard's trace fragment and grafts it into
// the call's local trace. A fragment that fails validation — malformed
// JSON, oversized, hostile times — is dropped and counted on the trace;
// telemetry must never fail the data-plane call that carried it.
func attachFragment(ctx context.Context, raw json.RawMessage) {
	tr := trace.FromContext(ctx)
	if tr == nil || len(raw) == 0 {
		return
	}
	x, err := trace.DecodeFragment(raw)
	if err != nil {
		tr.DropFragment()
		return
	}
	tr.AttachFragment(x)
}

// FetchMetrics implements MetricsFetcher: the peer's /metrics page for
// the coordinator's federated exposition.
func (b *HTTPBackend) FetchMetrics(ctx context.Context) ([]byte, error) {
	return b.C.MetricsText(ctx)
}

// wireMasker derives Candidate.Mask on the coordinator side: the wire
// carries each object's full keyword strings (which Words keeps, so an
// HTTP candidate is born hydrated), and the mask is their intersection
// with the query words, by position.
type wireMasker map[string]kwds.Mask

func newWireMasker(words []string) wireMasker {
	m := make(wireMasker, len(words))
	for i, w := range words {
		m[w] |= 1 << uint(i)
	}
	return m
}

func (m wireMasker) candidate(id uint32, x, y float64, keywords []string) Candidate {
	c := Candidate{GID: dataset.ObjectID(id), Loc: geo.Point{X: x, Y: y}, Words: keywords}
	for _, w := range keywords {
		c.Mask |= m[w]
	}
	return c
}

// NN implements Backend, surfacing the peer's generation header.
func (b *HTTPBackend) NN(ctx context.Context, q ShardQuery) (NNResult, error) {
	if err := checkWords(q); err != nil {
		return NNResult{}, err
	}
	resp, err := b.C.ShardNN(ctx, q.Loc.X, q.Loc.Y, q.Words)
	if err != nil {
		return NNResult{}, err
	}
	attachFragment(ctx, resp.Trace)
	masker := newWireMasker(q.Words)
	hits := make([]NNHit, len(resp.Hits))
	for i, h := range resp.Hits {
		if !h.Found {
			continue
		}
		hits[i] = NNHit{Found: true, Dist: h.Dist, Cand: masker.candidate(h.ID, h.X, h.Y, h.Keywords)}
	}
	return NNResult{Gen: resp.Gen, Hits: hits}, nil
}

// Collect implements Backend, surfacing the peer's generation header.
func (b *HTTPBackend) Collect(ctx context.Context, q ShardQuery, radius float64) (CollectResult, error) {
	if err := checkWords(q); err != nil {
		return CollectResult{}, err
	}
	resp, err := b.C.ShardCollect(ctx, q.Loc.X, q.Loc.Y, radius, q.Words)
	if err != nil {
		return CollectResult{}, err
	}
	attachFragment(ctx, resp.Trace)
	masker := newWireMasker(q.Words)
	out := make([]Candidate, len(resp.Objects))
	for i, o := range resp.Objects {
		out[i] = masker.candidate(o.ID, o.X, o.Y, o.Keywords)
	}
	return CollectResult{Gen: resp.Gen, Objects: out}, nil
}
