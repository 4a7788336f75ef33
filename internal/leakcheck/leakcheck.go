// Package leakcheck asserts that a test wound down everything it spawned:
// servers, clients, fault injectors. It imports nothing of this module, so
// the in-package tests of any package can use it without an import cycle.
package leakcheck

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Guard holds the process goroutine count taken before a test started
// anything. Goroutine counts are noisy while things shut down
// asynchronously, so Check polls until the count returns to the baseline
// or the deadline expires.
type Guard struct {
	baseline int
}

// New captures the current goroutine count as the baseline. Take it before
// starting any servers or clients.
func New() *Guard {
	return &Guard{baseline: runtime.NumGoroutine()}
}

// Check polls for up to wait until the goroutine count is back at (or
// below) the baseline; on timeout it returns an error carrying a full
// stack dump of the leaked goroutines.
func (g *Guard) Check(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= g.baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leakcheck: %d goroutines above baseline after %s (baseline %d, now %d):\n%s",
				n-g.baseline, wait, g.baseline, n, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// GuardTest registers a cleanup that fails t if the goroutine count has
// not returned to the pre-test baseline within wait. Call it before the
// test spawns anything.
func GuardTest(t testing.TB, wait time.Duration) {
	t.Helper()
	g := New()
	t.Cleanup(func() {
		if err := g.Check(wait); err != nil {
			t.Errorf("goroutine leak: %v", err)
		}
	})
}
