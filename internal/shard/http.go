package shard

import (
	"context"
	"encoding/json"
	"net/url"
	"strconv"
	"strings"
	"time"

	"coskq/internal/client"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// The /shard/* wire: the bodies every coskq-server answers its data plane
// with (internal/server fills them) and HTTPBackend decodes. They are
// defined here once, so a coordinator and a shard agree by construction.

// WireMeta is the /shard/meta body.
type WireMeta struct {
	Name    string  `json:"name"`
	Objects int     `json:"objects"`
	MinX    float64 `json:"minX"`
	MinY    float64 `json:"minY"`
	MaxX    float64 `json:"maxX"`
	MaxY    float64 `json:"maxY"`
	Empty   bool    `json:"empty"`
	// Summary is the hex-encoded keyword bitset (Summary.Encode).
	Summary string `json:"summary"`
	// Gen is the shard's index generation (0 for static datasets).
	Gen uint64 `json:"gen"`
}

// WireObject is one object on the wire: a /shard/collect entry, and the
// body of a /shard/nn hit. Keywords are the object's full keyword list.
type WireObject struct {
	ID       uint32   `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
}

// WireHit is one /shard/nn entry: the shard's nearest object containing
// the corresponding query keyword, when Found.
type WireHit struct {
	Found bool `json:"found"`
	WireObject
	Dist float64 `json:"dist"`
}

// WireNN is the /shard/nn body. Gen is the generation the answer was
// computed against; the router cross-checks it between a scatter's NN
// and Collect phases. Trace is the shard's trace fragment, present only
// when the request carried a traceparent header. It stays raw: the
// fragment is untrusted remote input that trace.DecodeFragment validates
// under hard limits before anything is stitched.
type WireNN struct {
	Gen   uint64          `json:"gen"`
	Hits  []WireHit       `json:"hits"`
	Trace json.RawMessage `json:"trace,omitempty"`
}

// WireCollect is the /shard/collect body; Gen and Trace are as on WireNN.
type WireCollect struct {
	Gen     uint64          `json:"gen"`
	Objects []WireObject    `json:"objects"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

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
	var m WireMeta
	if err := b.C.GetJSON(ctx, "/shard/meta", nil, &m); err != nil {
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

// wireValues encodes a shard query as /shard/* parameters.
func wireValues(q ShardQuery) url.Values {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(q.Loc.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(q.Loc.Y, 'g', -1, 64))
	v.Set("kw", strings.Join(q.Words, ","))
	return v
}

// attachFragment validates a shard's trace fragment and grafts it into
// the call's trace. A fragment that fails validation — malformed JSON,
// oversized, hostile times — is dropped and counted on the trace;
// telemetry must never fail the data-plane call that carried it. The
// fragment's root is the shard server's handler, which ended about now:
// it is grafted by its own duration, so no remote clock enters the tree.
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
	d := time.Duration(max(x.DurUs, 0) * float64(time.Microsecond))
	tr.Graft(x.Name, time.Now().Add(-d), d, x)
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

func (m wireMasker) candidate(o WireObject) Candidate {
	c := Candidate{GID: dataset.ObjectID(o.ID), Loc: geo.Point{X: o.X, Y: o.Y}, Words: o.Keywords}
	for _, w := range o.Keywords {
		c.Mask |= m[w]
	}
	return c
}

// NN implements Backend, surfacing the peer's generation header.
func (b *HTTPBackend) NN(ctx context.Context, q ShardQuery) (NNResult, error) {
	if err := checkWords(q); err != nil {
		return NNResult{}, err
	}
	var resp WireNN
	if err := b.C.GetJSON(ctx, "/shard/nn", wireValues(q), &resp); err != nil {
		return NNResult{}, err
	}
	attachFragment(ctx, resp.Trace)
	masker := newWireMasker(q.Words)
	hits := make([]NNHit, len(resp.Hits))
	for i, h := range resp.Hits {
		if !h.Found {
			continue
		}
		hits[i] = NNHit{Found: true, Dist: h.Dist, Cand: masker.candidate(h.WireObject)}
	}
	return NNResult{Gen: resp.Gen, Hits: hits}, nil
}

// Collect implements Backend, surfacing the peer's generation header.
func (b *HTTPBackend) Collect(ctx context.Context, q ShardQuery, radius float64) (CollectResult, error) {
	if err := checkWords(q); err != nil {
		return CollectResult{}, err
	}
	v := wireValues(q)
	v.Set("r", strconv.FormatFloat(radius, 'g', -1, 64))
	var resp WireCollect
	if err := b.C.GetJSON(ctx, "/shard/collect", v, &resp); err != nil {
		return CollectResult{}, err
	}
	attachFragment(ctx, resp.Trace)
	masker := newWireMasker(q.Words)
	out := make([]Candidate, len(resp.Objects))
	for i, o := range resp.Objects {
		out[i] = masker.candidate(o)
	}
	return CollectResult{Gen: resp.Gen, Objects: out}, nil
}
