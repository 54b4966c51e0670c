// Package client is a small HTTP client for coskq-server with
// overload-aware retries: transient failures (network errors and the
// server's 429/502/503/504 refusals) are retried with jittered
// exponential backoff, a 429's Retry-After hint overrides the computed
// backoff, and degraded (anytime) answers are surfaced on the decoded
// response rather than hidden. It pairs with the server's admission
// controller — a shed request is explicitly cheap for the server, so
// the polite client behaviour is to back off and come back, not to
// hammer or to give up.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"coskq/internal/trace"
)

// Default retry tuning, used when the corresponding Client field is zero.
const (
	DefaultMaxRetries  = 3
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second

	// DefaultHTTPTimeout bounds one attempt (connect through body read)
	// when the caller supplies no *http.Client of its own. Outbound
	// shard/peer calls must never be able to hang forever — the retry
	// loop bounds attempts, this bounds each attempt.
	DefaultHTTPTimeout = 30 * time.Second
)

// defaultHTTPClient replaces the http.DefaultClient fallback: identical
// transport, but with an explicit per-attempt timeout so a stuck peer
// cannot pin a coordinator goroutine indefinitely.
var defaultHTTPClient = &http.Client{Timeout: DefaultHTTPTimeout}

// Client calls a coskq-server. The zero value is not usable: set Base.
// All other fields are optional. A Client is safe for concurrent use.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// HTTP is the underlying client; nil means a shared default client
	// with DefaultHTTPTimeout per attempt. If you supply your own, give
	// it a Timeout (or use request contexts) — this package bounds
	// retries, not individual attempts.
	HTTP *http.Client
	// MaxRetries is the number of re-attempts after the first try.
	// Negative disables retries entirely; zero means DefaultMaxRetries.
	MaxRetries int
	// BaseBackoff is the first retry delay; attempt n waits
	// BaseBackoff·2ⁿ (capped at MaxBackoff), jittered uniformly down to
	// half the computed value so synchronized clients desynchronize.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration

	// sleep is the backoff wait, overridable by tests. nil means wait on
	// a timer or the context, whichever ends first.
	sleep func(ctx context.Context, d time.Duration) error
}

// Object mirrors the server's per-object JSON.
type Object struct {
	ID          uint32   `json:"id"`
	X           float64  `json:"x"`
	Y           float64  `json:"y"`
	DistToQuery float64  `json:"distToQuery"`
	Keywords    []string `json:"keywords"`
}

// QueryResponse mirrors the server's /query body. Degraded answers —
// anytime results returned under the server's degrade policy instead of
// an overload error — carry Degraded=true and the reason ("budget",
// "deadline", "cancelled").
type QueryResponse struct {
	Cost          float64  `json:"cost"`
	CostKind      string   `json:"costKind"`
	Method        string   `json:"method"`
	ElapsedMs     float64  `json:"elapsedMs"`
	Objects       []Object `json:"objects"`
	Degraded      bool     `json:"degraded"`
	DegradeReason string   `json:"degradeReason"`
}

// TopKResponse mirrors the server's /topk body.
type TopKResponse struct {
	Results []QueryResponse `json:"results"`
}

// QueryParams selects the query. Keywords must be non-empty; Cost and
// Method default server-side (maxsum, exact).
type QueryParams struct {
	X, Y     float64
	Keywords []string
	Cost     string
	Method   string
}

func (p QueryParams) values() url.Values {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(p.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(p.Y, 'g', -1, 64))
	v.Set("kw", strings.Join(p.Keywords, ","))
	if p.Cost != "" {
		v.Set("cost", p.Cost)
	}
	if p.Method != "" {
		v.Set("method", p.Method)
	}
	return v
}

// APIError is a non-2xx reply from the server, carrying the decoded
// JSON error envelope and, for shed (429) replies, the Retry-After
// hint. Exhausted retries return the final attempt's APIError.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
	Attempts   int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("coskq-server: %d %s (after %d attempts): %s",
		e.Status, http.StatusText(e.Status), e.Attempts, e.Message)
}

// Query answers one CoSKQ query, retrying transient failures.
func (c *Client) Query(ctx context.Context, p QueryParams) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.getJSON(ctx, "/query", p.values(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopK returns the n cheapest result sets, retrying transient failures.
func (c *Client) TopK(ctx context.Context, p QueryParams, n int) (*TopKResponse, error) {
	v := p.values()
	v.Set("n", strconv.Itoa(n))
	var out TopKResponse
	if err := c.getJSON(ctx, "/topk", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// retryableStatus reports whether the server's reply invites another
// attempt: explicit overload sheds (429), and the gateway/availability
// statuses the server uses for exhausted budgets, cancellations, and
// timeouts.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// injectContextHeaders forwards the calling request's observability
// context on an outbound call: the request id assigned by the server
// middleware (X-Request-Id, so coordinator and shard log lines join on
// one id) and, when the caller is tracing, the traceparent-shaped span
// context that makes the shard return a trace fragment. Both probes are
// plain context lookups — free when neither is set.
func injectContextHeaders(ctx context.Context, req *http.Request) {
	if id := trace.RequestIDFromContext(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	if sc, ok := trace.SpanContextFromContext(ctx); ok && sc.Valid() {
		req.Header.Set("Traceparent", sc.Traceparent())
	}
}

// getJSON runs the retry loop for one logical request.
func (c *Client) getJSON(ctx context.Context, path string, v url.Values, out any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = defaultHTTPClient
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = DefaultMaxRetries
	} else if retries < 0 {
		retries = 0
	}
	u := strings.TrimSuffix(c.Base, "/") + path + "?" + v.Encode()

	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		injectContextHeaders(ctx, req)
		resp, err := httpc.Do(req)
		switch {
		case err != nil:
			// Network-level failure. The context's own end is final; an
			// interrupted or refused connection is worth another try.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
		case resp.StatusCode == http.StatusOK:
			err := json.NewDecoder(resp.Body).Decode(out)
			resp.Body.Close()
			return err
		default:
			apiErr := &APIError{Status: resp.StatusCode, Attempts: attempt + 1}
			var envelope struct {
				Error string `json:"error"`
			}
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope) == nil {
				apiErr.Message = envelope.Error
			}
			if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				apiErr.RetryAfter = ra
			}
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return apiErr
			}
			lastErr = apiErr
		}
		if attempt >= retries {
			return lastErr
		}
		if err := c.wait(ctx, c.backoff(attempt, lastErr)); err != nil {
			return err
		}
	}
}

// MaxMetricsPage bounds how much of a peer's /metrics exposition the
// federation fan-out will read; a runaway or hostile peer cannot feed
// the coordinator an unbounded page.
const MaxMetricsPage = 4 << 20

// MetricsText fetches the server's /metrics text exposition — the
// per-peer leg of the coordinator's federated /metrics?federate=1 page.
// It applies the same retry policy as the query endpoints and caps the
// body at MaxMetricsPage.
func (c *Client) MetricsText(ctx context.Context) ([]byte, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = defaultHTTPClient
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = DefaultMaxRetries
	} else if retries < 0 {
		retries = 0
	}
	u := strings.TrimSuffix(c.Base, "/") + "/metrics"

	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		injectContextHeaders(ctx, req)
		resp, err := httpc.Do(req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
		case resp.StatusCode == http.StatusOK:
			body, err := io.ReadAll(io.LimitReader(resp.Body, MaxMetricsPage+1))
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if len(body) > MaxMetricsPage {
				return nil, fmt.Errorf("coskq-server: /metrics page exceeds %d bytes", MaxMetricsPage)
			}
			return body, nil
		default:
			apiErr := &APIError{Status: resp.StatusCode, Attempts: attempt + 1}
			if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				apiErr.RetryAfter = ra
			}
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return nil, apiErr
			}
			lastErr = apiErr
		}
		if attempt >= retries {
			return nil, lastErr
		}
		if err := c.wait(ctx, c.backoff(attempt, lastErr)); err != nil {
			return nil, err
		}
	}
}

// MaxRetryAfter clamps absurd Retry-After hints (a misconfigured or
// hostile server must not park the client for hours, and delta-seconds
// values past ~292 years overflow time.Duration outright).
const MaxRetryAfter = 5 * time.Minute

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either non-negative delta-seconds or an HTTP-date. It
// returns (hint, true) for a usable hint — clamped to MaxRetryAfter —
// and (0, false) for an absent, negative, past-dated, or malformed
// value (the caller then falls back to computed backoff). A literal "0"
// is usable but yields no hint duration, matching the previous
// behaviour.
func parseRetryAfter(h string, now time.Time) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		if strings.HasPrefix(h, "-") {
			return 0, false
		}
		if errors.Is(err, strconv.ErrRange) || secs > int64(MaxRetryAfter/time.Second) {
			return MaxRetryAfter, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(h); err == nil {
		d := at.Sub(now)
		if d <= 0 {
			return 0, false
		}
		if d > MaxRetryAfter {
			return MaxRetryAfter, true
		}
		return d, true
	}
	return 0, false
}

// backoff computes the pre-retry delay: the server's Retry-After hint
// when the last failure carried one, else jittered exponential backoff.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	if apiErr, ok := lastErr.(*APIError); ok && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter
	}
	base := c.BaseBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	max := c.MaxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	d := base << uint(attempt)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	// Full-jitter lower half: uniform in [d/2, d].
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
