package client

import (
	"context"
	"encoding/json"
	"net/url"
	"strconv"
	"strings"
)

// Shard data-plane calls: the read-only endpoints a scatter-gather
// coordinator fans out to on peer shard servers (internal/server
// mounts them on every server). They share the client's retry and
// backoff behaviour, so a shard shedding load (429 + Retry-After)
// is retried politely rather than reported as failed immediately.

// ShardMetaResponse mirrors the server's /shard/meta body.
type ShardMetaResponse struct {
	Name    string  `json:"name"`
	Objects int     `json:"objects"`
	MinX    float64 `json:"minX"`
	MinY    float64 `json:"minY"`
	MaxX    float64 `json:"maxX"`
	MaxY    float64 `json:"maxY"`
	Empty   bool    `json:"empty"`
	// Summary is the hex-encoded keyword bitset (shard.Summary wire form).
	Summary string `json:"summary"`
	// Gen is the shard's index generation (0 for static datasets).
	Gen uint64 `json:"gen"`
}

// ShardNNHit mirrors one entry of the server's /shard/nn body: the
// shard's nearest object containing the corresponding query keyword.
type ShardNNHit struct {
	Found    bool     `json:"found"`
	ID       uint32   `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Dist     float64  `json:"dist"`
	Keywords []string `json:"keywords"`
}

// ShardNNResponse mirrors the server's /shard/nn body. Trace is the
// shard's trace fragment, present only when the request carried a
// traceparent header; it stays raw here — the fragment is untrusted
// remote input that trace.DecodeFragment validates under hard limits
// before anything is stitched.
type ShardNNResponse struct {
	Gen   uint64          `json:"gen"`
	Hits  []ShardNNHit    `json:"hits"`
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ShardObject mirrors one entry of the server's /shard/collect body.
type ShardObject struct {
	ID       uint32   `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
}

// ShardCollectResponse mirrors the server's /shard/collect body; Trace
// is the optional fragment, as on ShardNNResponse.
type ShardCollectResponse struct {
	Gen     uint64          `json:"gen"`
	Objects []ShardObject   `json:"objects"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

func shardValues(x, y float64, kws []string) url.Values {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(x, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(y, 'g', -1, 64))
	v.Set("kw", strings.Join(kws, ","))
	return v
}

// ShardMeta fetches the shard's routing summary.
func (c *Client) ShardMeta(ctx context.Context) (*ShardMetaResponse, error) {
	var out ShardMetaResponse
	if err := c.getJSON(ctx, "/shard/meta", url.Values{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardNN fetches the shard's nearest object per query keyword; the
// response carries one hit slot per keyword, in order. Keywords unknown
// to the shard come back with Found=false, never as an error.
func (c *Client) ShardNN(ctx context.Context, x, y float64, kws []string) (*ShardNNResponse, error) {
	var out ShardNNResponse
	if err := c.getJSON(ctx, "/shard/nn", shardValues(x, y, kws), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardCollect fetches every shard object within radius r of (x, y)
// sharing at least one keyword with kws.
func (c *Client) ShardCollect(ctx context.Context, x, y, r float64, kws []string) (*ShardCollectResponse, error) {
	v := shardValues(x, y, kws)
	v.Set("r", strconv.FormatFloat(r, 'g', -1, 64))
	var out ShardCollectResponse
	if err := c.getJSON(ctx, "/shard/collect", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
