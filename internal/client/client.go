// Package client is the retry/backoff transport a coordinator calls peer
// coskq-servers through: one generic JSON GET (GetJSON), which
// internal/shard's HTTPBackend decodes the /shard/* wire with, and the
// /metrics page the federated exposition merges. Every call retries
// transient failures (network errors and the server's 429/502/503/504
// refusals) with jittered exponential backoff, and a 429's Retry-After
// hint overrides the computed backoff. It pairs with the server's
// admission controller — a shed request is explicitly cheap for the
// server, so the polite client behaviour is to back off and come back,
// not to hammer or to give up.
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

// GetJSON runs one logical GET of path with query values v and decodes
// the JSON reply into out.
func (c *Client) GetJSON(ctx context.Context, path string, v url.Values, out any) error {
	return c.get(ctx, path+"?"+v.Encode(), func(body io.Reader) error {
		return json.NewDecoder(body).Decode(out)
	})
}

// MaxMetricsPage bounds how much of a peer's /metrics exposition the
// federation fan-out will read; a runaway or hostile peer cannot feed
// the coordinator an unbounded page.
const MaxMetricsPage = 4 << 20

// MetricsText fetches the server's /metrics text exposition — the
// per-peer leg of the coordinator's federated /metrics?federate=1 page.
// It applies the same retry policy as GetJSON and caps the
// body at MaxMetricsPage.
func (c *Client) MetricsText(ctx context.Context) ([]byte, error) {
	var page []byte
	err := c.get(ctx, "/metrics", func(body io.Reader) (err error) {
		if page, err = io.ReadAll(io.LimitReader(body, MaxMetricsPage+1)); err == nil && len(page) > MaxMetricsPage {
			err = fmt.Errorf("coskq-server: /metrics page exceeds %d bytes", MaxMetricsPage)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return page, nil
}

// get runs the retry loop for one logical GET of pathQuery and hands a
// 200 reply's body to read.
func (c *Client) get(ctx context.Context, pathQuery string, read func(io.Reader) error) error {
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
	u := strings.TrimSuffix(c.Base, "/") + pathQuery

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
			err := read(resp.Body)
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
