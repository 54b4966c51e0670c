package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coskq/internal/datagen"
)

const (
	// writeEvery is the fixed schedule of the live workload's writer:
	// one batch every 100 ms, timed from when it was due.
	writeEvery = 100 * time.Millisecond
	// pollEvery is how often the writer asks /healthz whether its batch
	// has become visible.
	pollEvery = 2 * time.Millisecond
)

// readSample is one verified read request.
type readSample struct {
	end     time.Duration // completion time since the window began
	rtt     time.Duration // send to last body byte
	queries int           // queries it answered (64 for a batch)
}

// window is what one closed-loop run observed.
type window struct {
	dur       time.Duration
	reads     []readSample
	attempted int // read requests and write batches sent
	failed    int // transport errors, timeouts, non-200s and wrong answers
	firstErr  error

	// Writer observations (live workloads only), one per write batch.
	visible []time.Duration // due time → first /healthz poll with backlog 0
	ack     []time.Duration // POST /objects round trip
	late    []time.Duration // due time → actually sent
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// queries returns the verified queries the window answered.
func (w *window) queries() int {
	n := 0
	for _, s := range w.reads {
		n += s.queries
	}
	return n
}

// slices splits the window into one-second slices (a window shorter
// than that is one slice) and returns, per full slice, the verified
// queries completed per second and the median round trip in ms. The
// reported throughput and median latency are the medians of these, so a
// host stall or a few seconds of a noisy neighbour do not move them.
func (w *window) slices() (rates, p50ms []float64) {
	n, width := int(w.dur/time.Second), time.Second
	if n == 0 {
		n, width = 1, w.dur
	}
	rates = make([]float64, n)
	rtts := make([][]float64, n)
	for _, s := range w.reads {
		if i := int(s.end / width); i < n {
			rates[i] += float64(s.queries) / width.Seconds()
			rtts[i] = append(rtts[i], in(s.rtt, time.Millisecond))
		}
	}
	for _, r := range rtts {
		if len(r) > 0 {
			p50ms = append(p50ms, median(r))
		}
	}
	return rates, p50ms
}

// driver sends a workload's traffic at one server. The pool cursor and
// the churn stream persist across windows, so a measured window carries
// on where the warm-up stopped.
type driver struct {
	base  string
	w     *workload
	pool  []request
	next  atomic.Int64         // pool cursor, shared by the read clients
	reqID atomic.Int64         // span request ids
	churn *datagen.ChurnStream // live workloads only
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// outcome is one read request as the client saw it.
type outcome struct {
	rtt      time.Duration
	reported float64 // the response's own elapsedMs
	bytes    int
	span     int // id of the client.rtt span (0 when not recording)
	err      error
}

// issue sends one pool request, verifies the answer and records the
// client.request ⊃ client.rtt spans (with the server's self-reported
// solve time centred inside the round trip).
func (d *driver) issue(c *http.Client, r *request, rec *recorder) outcome {
	began := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	method, body := r.wire()
	req, err := http.NewRequestWithContext(ctx, method, d.base+r.path, body)
	if err != nil {
		return outcome{err: err}
	}
	sent := time.Now()
	code, resp, err := roundTrip(c, req)
	got := time.Now()
	out := outcome{rtt: got.Sub(sent), bytes: len(resp), err: err}
	if err == nil && code != http.StatusOK {
		out.err = fmt.Errorf("%s: status %d: %.200s", r.path, code, resp)
	}
	if out.err == nil {
		out.reported, out.err = verifyResponse(r, resp)
		if out.err != nil {
			out.err = fmt.Errorf("%s: %w", r.path, out.err)
		}
	}
	if rec != nil {
		id := int(d.reqID.Add(1))
		parent := rec.add("client.request", began, time.Now(), 0, id)
		out.span = rec.add("client.rtt", sent, got, parent, id)
		// Not a child of client.rtt: the in-process server.handler rung
		// is, and that already contains the solve.
		solve := time.Duration(out.reported * float64(time.Millisecond))
		mid := sent.Add(out.rtt / 2)
		rec.add("server.solve_reported", mid.Add(-solve/2), mid.Add(solve/2), 0, id)
	}
	return out
}

// run drives the workload for dur and returns what it saw. rec is nil
// for untraced windows.
func (d *driver) run(dur time.Duration, rec *recorder) *window {
	win := &window{dur: dur}
	var mu sync.Mutex // guards win
	var wg sync.WaitGroup
	began := time.Now()
	deadline := began.Add(dur)

	readers := numClients()
	if d.w.live {
		readers = 1 // the second connection is the writer
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(deadline) {
				r := &d.pool[int((d.next.Add(1)-1)%int64(len(d.pool)))]
				out := d.issue(c, r, rec)
				end := time.Since(began)
				mu.Lock()
				win.attempted++
				if out.err != nil {
					win.fail(out.err)
				} else {
					win.reads = append(win.reads, readSample{end: end, rtt: out.rtt, queries: len(r.queries)})
				}
				mu.Unlock()
			}
		}()
	}
	if d.w.live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for k := 0; ; k++ {
				due := began.Add(time.Duration(k) * writeEvery)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				late := time.Since(due)
				ack, err := d.write(c, rec)
				visible := time.Since(due)
				mu.Lock()
				win.attempted++
				if err != nil {
					win.fail(err)
				} else {
					win.late = append(win.late, late)
					win.ack = append(win.ack, ack)
					win.visible = append(win.visible, visible)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return win
}

// write posts the next churn batch and polls /healthz until the store's
// backlog is empty, i.e. the batch is visible to reads. It returns the
// POST's round trip.
func (d *driver) write(c *http.Client, rec *recorder) (time.Duration, error) {
	began := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/objects", bytes.NewReader(churnBody(nextChurn(d.churn))))
	if err != nil {
		return 0, err
	}
	sent := time.Now()
	code, body, err := roundTrip(c, req)
	ack := time.Since(sent)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/objects: status %d: %.200s", code, body)
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("/objects: %w", err)
	}
	if len(resp.Results) != churnOps {
		return 0, fmt.Errorf("/objects: %d results for %d ops", len(resp.Results), churnOps)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			return 0, fmt.Errorf("/objects: op %d: %s", i, r.Error)
		}
	}
	for {
		backlog, _, err := health(c, d.base)
		if err != nil {
			return 0, err
		}
		if backlog == 0 {
			break
		}
		if time.Since(began) > requestTimeout {
			return 0, errors.New("/objects: batch not visible within the request timeout")
		}
		time.Sleep(pollEvery)
	}
	if rec != nil {
		id := int(d.reqID.Add(1))
		parent := rec.add("client.write", began, time.Now(), 0, id)
		rec.add("client.write_ack", sent, sent.Add(ack), parent, id)
	}
	return ack, nil
}

// health reads /healthz: the live store's pending ops and object count.
func health(c *http.Client, base string) (backlog, objects int, err error) {
	code, body, err := get(c, base+"/healthz")
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("/healthz: status %d", code)
	}
	var h struct {
		Backlog int `json:"backlog"`
		Objects int `json:"objects"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, 0, fmt.Errorf("/healthz: %w", err)
	}
	return h.Backlog, h.Objects, nil
}

// checkLive verifies, after the last write has drained, that the server
// holds exactly the objects the churn stream says are live.
func (d *driver) checkLive() error {
	c := newClient()
	defer c.CloseIdleConnections()
	backlog, objects, err := health(c, d.base)
	if err != nil {
		return err
	}
	if want := len(d.churn.Live()); backlog != 0 || objects != want {
		return fmt.Errorf("after the final drain the server holds %d objects with backlog %d, the churn stream %d", objects, backlog, want)
	}
	return nil
}
