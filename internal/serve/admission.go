package serve

import (
	"sync"
	"time"

	"finbench"
)

// Admission control. Every request costs a number of work units
// proportional to its estimated CPU time (method weight x option count);
// a weighted semaphore bounds the units in flight. Requests that cannot
// acquire their units within a short bounded wait are shed with 503 —
// fast rejection at the door instead of a queue that grows without bound
// and blows every deadline. This is the server's one answer to overload:
// it never rate-limits by request count and never swaps in cheaper
// parameters, so every 200 is priced exactly as requested.

// unitCost estimates the work units of pricing n options with the given
// method and resolved config. Units are scaled so one closed-form option
// costs ~1; the heavy methods' weights come from their operation counts
// (a 1024-step tree touches ~steps^2/2 nodes, a 256x1000 Crank-Nicolson
// grid ~grid*steps point updates of its two-pass direct solve, Monte
// Carlo ~paths exp evaluations). The Monte Carlo weight still charges a
// request as if it drew its normals, although one whose seed's stream
// is already stored skips them: per option the exponentials remain, and
// the weight waits for a retune from measured per-option server CPU
// (ROADMAP item 4).
func unitCost(method finbench.Method, cfg finbench.Config, n int) int64 {
	var per int64
	switch method {
	case finbench.ClosedForm:
		per = 1
	case finbench.BinomialTree, finbench.TrinomialTree:
		s := int64(cfg.BinomialSteps)
		per = s*s/1000 + 1
	case finbench.FiniteDifference:
		per = int64(cfg.GridPoints)*int64(cfg.TimeSteps)/50 + 1
	case finbench.MonteCarlo:
		per = int64(cfg.MCPaths)/25 + 1
	default:
		per = 1
	}
	return per * int64(n)
}

// admission is a weighted semaphore with FIFO waiters and bounded waits.
type admission struct {
	mu  sync.Mutex
	max int64
	cur int64
	q   []*admWaiter
}

type admWaiter struct {
	units int64
	ready chan struct{}
}

func newAdmission(maxUnits int64) *admission {
	return &admission{max: maxUnits}
}

// acquire obtains units, waiting at most wait. Requests larger than the
// whole budget are clamped so they can still run (alone). Returns the
// units actually held (to pass to release) and whether admission
// succeeded.
func (a *admission) acquire(units int64, wait time.Duration) (int64, bool) {
	if units > a.max {
		units = a.max
	}
	a.mu.Lock()
	if len(a.q) == 0 && a.cur+units <= a.max {
		a.cur += units
		a.mu.Unlock()
		return units, true
	}
	if wait <= 0 {
		a.mu.Unlock()
		return 0, false
	}
	w := &admWaiter{units: units, ready: make(chan struct{})}
	a.q = append(a.q, w)
	a.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return units, true
	case <-timer.C:
		a.mu.Lock()
		select {
		case <-w.ready:
			// Granted between the timeout firing and taking the lock.
			a.mu.Unlock()
			return units, true
		default:
		}
		for i, q := range a.q {
			if q == w {
				a.q = append(a.q[:i], a.q[i+1:]...)
				break
			}
		}
		a.mu.Unlock()
		return 0, false
	}
}

// release returns units and grants queued waiters in FIFO order.
func (a *admission) release(units int64) {
	a.mu.Lock()
	a.cur -= units
	for len(a.q) > 0 && a.cur+a.q[0].units <= a.max {
		w := a.q[0]
		a.q = a.q[1:]
		a.cur += w.units
		close(w.ready)
	}
	a.mu.Unlock()
}

// inFlight returns the units currently held.
func (a *admission) inFlight() int64 {
	a.mu.Lock()
	v := a.cur
	a.mu.Unlock()
	return v
}

// queued returns the number of requests waiting for admission — the
// queue-depth signal /healthz exposes for router load scoring.
func (a *admission) queued() int {
	a.mu.Lock()
	n := len(a.q)
	a.mu.Unlock()
	return n
}
