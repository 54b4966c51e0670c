// Package testutil holds small helpers shared across the repository's
// test suites. Production code must not import it (TestSourceRules'
// no_testutil rule).
package testutil

import (
	"runtime"
	"time"
)

// TB is the subset of testing.TB the helpers need; taking the interface
// keeps testutil importable without the testing package appearing in
// any production build graph.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
	Logf(format string, args ...any)
}

// CheckGoroutineLeaks snapshots the goroutine count and registers a
// cleanup that fails the test if, after a grace period, more goroutines
// are running than at the snapshot. Call it at the top of any test that
// spawns workers, servers, or clients:
//
//	func TestServerThing(t *testing.T) {
//		testutil.CheckGoroutineLeaks(t)
//		...
//	}
//
// The checker retries for up to two seconds before failing — goroutines
// legitimately take a moment to unwind after a test's last join — and
// dumps the surviving stacks on failure so the leak is attributable.
// Tests running in parallel with other goroutine-spawning tests will
// see their neighbors' goroutines; use it on tests that own their
// concurrency.
func CheckGoroutineLeaks(t TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			t.Errorf("goroutine leak: %d running, %d at test start\n%s",
				n, base, stackDump())
		}
	})
}

// stackDump returns all goroutine stacks, trimmed to a sane size.
func stackDump() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	s := string(buf)
	const max = 16 * 1024
	if len(s) > max {
		s = s[:max] + "\n... (truncated)"
	}
	return s
}

// WaitFor polls cond every 10ms until it returns true or the timeout
// elapses, failing the test on timeout with the given label.
func WaitFor(t TB, timeout time.Duration, label string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out after %v waiting for %s", timeout, label)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
