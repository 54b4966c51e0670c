package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the coskq-lint binary into a temp dir and returns
// its path along with the repository root.
func buildLint(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "coskq-lint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/coskq-lint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building coskq-lint: %v\n%s", err, out)
	}
	return bin, root
}

// TestLintCleanOnRepo is the gate the CI lint job enforces: the full
// analyzer suite must pass over the repository itself.
func TestLintCleanOnRepo(t *testing.T) {
	bin, root := buildLint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=coskq-lint ./... failed: %v\n%s", err, out)
	}
}

// TestLintCatchesViolation verifies the tool actually fires through the
// real go vet -vettool binary: a package whose import path ends in
// "server" that logs through the legacy log package must fail vet with a
// slogonly diagnostic, and each row of the acquire/release checker
// (spanend, poolscratch, epochpin) must report its own seeded leak under
// its own message while a justified //coskq:nolint(epochpin) silences
// the one pin it covers.
func TestLintCatchesViolation(t *testing.T) {
	bin, _ := buildLint(t)
	run := writeModule(t, bin, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.22\n",
		"server/server.go": `package server

import "log"

func Warn(msg string) { log.Println(msg) }
`,
		"trace/trace.go": `package trace

type Trace struct{}

type Span struct{}

func (t *Trace) Begin(name string) *Span { return &Span{} }

func (s *Span) End() {}
`,
		"engine/engine.go": `package engine

import (
	"sync"

	"smoketest/trace"
)

type Generation struct{ Objects int }

func (g *Generation) Unpin() {}

type Store struct{ cur *Generation }

func (s *Store) Pin() *Generation { return s.cur }

var scratchPool = sync.Pool{New: func() interface{} { return new([]int) }}

func leakySpan(tr *trace.Trace, fail bool) {
	sp := tr.Begin("phase")
	if fail {
		return
	}
	sp.End()
}

func leakyScratch(fail bool) {
	buf := scratchPool.Get().(*[]int)
	if fail {
		return
	}
	scratchPool.Put(buf)
}

func leakyPin(st *Store, fail bool) int {
	gen := st.Pin()
	if fail {
		return 0
	}
	n := gen.Objects
	gen.Unpin()
	return n
}

func heldPin(st *Store) int {
	//coskq:nolint(epochpin) process-lifetime pin, released by OS teardown
	held := st.Pin()
	return held.Objects
}
`,
	})
	out, err := run()
	if err == nil {
		t.Fatalf("go vet passed over the seeded violations\n%s", out)
	}
	for _, want := range []string{
		"log/slog", // slogonly
		"span sp is not closed on all paths",
		"pooled object buf is not returned to the pool on all paths",
		"pinned generation gen is not unpinned on all paths",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pinned generation held") {
		t.Errorf("a justified //coskq:nolint(epochpin) must suppress the pin it covers:\n%s", out)
	}
}

// writeModule lays out a throwaway module for vet smoke tests and
// returns a helper that runs the suite over it.
func writeModule(t *testing.T, bin string, files map[string]string) (run func() (string, error)) {
	t.Helper()
	mod := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return func() (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = mod
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
}

// TestLintDetmapsTestMode verifies the detmaps test-mode rule fires on
// _test.go files: a test table expressed as a map literal is rejected
// because a failure message depends on which case the runtime visits
// first. The offline analyzertest harness skips _test.go fixtures, so
// this behavior is proven here, through real go vet.
func TestLintDetmapsTestMode(t *testing.T) {
	bin, _ := buildLint(t)
	run := writeModule(t, bin, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.22\n",
		"shard/shard.go": `package shard

func Route(n int) int { return n % 4 }
`,
		"shard/shard_test.go": `package shard

import "testing"

func TestRoute(t *testing.T) {
	for in, want := range map[int]int{1: 1, 5: 1, 8: 0} {
		if got := Route(in); got != want {
			t.Fatalf("Route(%d) = %d, want %d", in, got, want)
		}
	}
}
`,
	})
	out, err := run()
	if err == nil {
		t.Fatalf("go vet passed over a map-literal test table; want a detmaps failure\n%s", out)
	}
	if !strings.Contains(out, "map literal of cases") {
		t.Fatalf("vet failed but without the detmaps test-mode diagnostic:\n%s", out)
	}
}

// TestLintNolintRequiresReason verifies the suppression policy: a
// //coskq:nolint(analyzer) with no reason suppresses nothing and is
// itself reported, while a justified one silences the diagnostic.
func TestLintNolintRequiresReason(t *testing.T) {
	bin, _ := buildLint(t)

	src := func(nolint string) string {
		return `package server

import "log"

func Warn(msg string) {
	` + nolint + `
	log.Println(msg)
}
`
	}

	run := writeModule(t, bin, map[string]string{
		"go.mod":           "module smoketest\n\ngo 1.22\n",
		"server/server.go": src("//coskq:nolint(slogonly)"),
	})
	out, err := run()
	if err == nil {
		t.Fatalf("go vet passed with a reason-less nolint; want it reported\n%s", out)
	}
	if !strings.Contains(out, "without a reason") {
		t.Fatalf("vet failed but without the missing-reason diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "log/slog") {
		t.Fatalf("a reason-less nolint must not suppress the underlying diagnostic:\n%s", out)
	}

	run = writeModule(t, bin, map[string]string{
		"go.mod":           "module smoketest\n\ngo 1.22\n",
		"server/server.go": src("//coskq:nolint(slogonly) startup banner predates the logger"),
	})
	if out, err := run(); err != nil {
		t.Fatalf("justified nolint should suppress the diagnostic, got: %v\n%s", err, out)
	}
}
