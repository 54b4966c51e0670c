package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
)

// relTol is the relative tolerance of every cost comparison.
const relTol = 1e-9

func costsAgree(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// answerObject is the part of a served object the checks need.
type answerObject struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
}

// answer is one served CoSKQ answer (a /query body or a /batch item).
type answer struct {
	Cost      float64        `json:"cost"`
	ElapsedMs float64        `json:"elapsedMs"`
	Objects   []answerObject `json:"objects"`
	Degraded  bool           `json:"degraded"`
	Error     string         `json:"error"`
}

// checkAnswer verifies one served answer: its objects cover q.ψ, the
// cost recomputed from their coordinates equals the reported one, and —
// when the oracle knows the answer — the reported cost equals want.
func checkAnswer(q query, cost string, want *float64, a answer) error {
	if a.Error != "" {
		return fmt.Errorf("item error: %s", a.Error)
	}
	if a.Degraded {
		return errors.New("degraded answer")
	}
	if len(a.Objects) == 0 {
		return errors.New("empty answer set")
	}
	for _, w := range q.Kw {
		covered := false
		for _, o := range a.Objects {
			for _, ow := range o.Keywords {
				covered = covered || ow == w
			}
		}
		if !covered {
			return fmt.Errorf("keyword %s not covered", w)
		}
	}
	loc := geo.Point{X: q.X, Y: q.Y}
	maxD, maxPair := 0.0, 0.0
	for i, o := range a.Objects {
		p := geo.Point{X: o.X, Y: o.Y}
		maxD = math.Max(maxD, loc.Dist(p))
		for _, o2 := range a.Objects[i+1:] {
			maxPair = math.Max(maxPair, p.Dist(geo.Point{X: o2.X, Y: o2.Y}))
		}
	}
	re := maxD + maxPair
	if cost == "dia" {
		re = math.Max(maxD, maxPair)
	}
	if !costsAgree(re, a.Cost) {
		return fmt.Errorf("reported cost %v, recomputed %v", a.Cost, re)
	}
	if want != nil && !costsAgree(*want, a.Cost) {
		return fmt.Errorf("reported cost %v, oracle %v", a.Cost, *want)
	}
	return nil
}

// verifyResponse checks a 200 body against the request that caused it
// and returns the solve time the response reports for itself.
func verifyResponse(r *request, body []byte) (elapsedMs float64, err error) {
	var answers []answer
	if r.isBatch() {
		var resp struct {
			ElapsedMs float64  `json:"elapsedMs"`
			Results   []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, err
		}
		answers, elapsedMs = resp.Results, resp.ElapsedMs
	} else {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return 0, err
		}
		answers, elapsedMs = []answer{a}, a.ElapsedMs
	}
	if len(answers) != len(r.queries) {
		return 0, fmt.Errorf("%d answers for %d queries", len(answers), len(r.queries))
	}
	for i, a := range answers {
		var want *float64
		if r.want != nil {
			want = &r.want[i]
		}
		if err := checkAnswer(r.queries[i], r.cost, want, a); err != nil {
			return 0, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return elapsedMs, nil
}

// solveOracle fills every request's want with the cost a serial engine
// (Parallelism=1) computes in-process for the same cost and method, and
// checks the oracle itself while it is at it: every approximate answer
// against the paper's ratio over the exact optimum, and a 64-query
// sample of small queries against the independent Cao-Exact search.
func solveOracle(eng *core.Engine, pool []request) error {
	serial := *eng
	serial.Parallelism = 1
	serial.Metrics = nil
	ds := eng.DS

	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = oracleRequest(&serial, ds, &pool[i])
			}
		}()
	}
	for i := range pool {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Cao-Exact cross-check on an evenly strided sample of small queries.
	const sample, maxKw = 64, 6
	checked := 0
	stride := max(1, len(pool)/sample)
	for i := 0; i < len(pool); i += stride {
		r := &pool[i]
		for j, q := range r.coreQueries(ds) {
			if len(q.Keywords) > maxKw {
				continue
			}
			own, err := serial.Solve(q, costKind(r.cost), core.OwnerExact)
			if err != nil {
				return fmt.Errorf("oracle check: request %d: %w", i, err)
			}
			cao, err := serial.Solve(q, costKind(r.cost), core.CaoExact)
			if err != nil {
				return fmt.Errorf("oracle check: request %d: %w", i, err)
			}
			if !costsAgree(own.Cost, cao.Cost) {
				return fmt.Errorf("oracle check: request %d query %d: OwnerExact %v, Cao-Exact %v", i, j, own.Cost, cao.Cost)
			}
			checked++
			break
		}
	}
	if checked == 0 {
		return errors.New("oracle check: no query with at most 6 keywords in the sample")
	}
	return nil
}

func oracleRequest(serial *core.Engine, ds *dataset.Dataset, r *request) error {
	cost, method := costKind(r.cost), methodKind(r.method)
	r.want = make([]float64, len(r.queries))
	for j, q := range r.coreQueries(ds) {
		res, err := serial.Solve(q, cost, method)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", r.path, err)
		}
		r.want[j] = res.Cost
		if method != core.OwnerAppro {
			continue
		}
		opt, err := serial.Solve(q, cost, core.OwnerExact)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", r.path, err)
		}
		bound := core.ApproRatioBound(cost, method)
		if res.Cost < opt.Cost*(1-relTol) || res.Cost > bound*opt.Cost*(1+relTol) {
			return fmt.Errorf("oracle: %s: approximate cost %v outside [OPT, %.4g·OPT], OPT %v", r.path, res.Cost, bound, opt.Cost)
		}
	}
	return nil
}
