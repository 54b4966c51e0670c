package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the id of the
// span that caused this one (0 for none) and Req identifies the request
// all spans of one ladder pass share. In-process rungs re-execute the
// request rather than nest inside the HTTP call, so their intervals do
// not lie inside their parent's: a layer's self time there is the
// difference of durations (selfTimes), not an interval subtraction.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced windows run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished call and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, start, end time.Time, parent, req int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns, per span id, the span's duration minus the summed
// durations of its direct children.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfByName returns the self times (ns) of every span called name, in
// recording order.
func selfByName(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string, f traceFile) error {
	f.Spans = r.snapshot()
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
