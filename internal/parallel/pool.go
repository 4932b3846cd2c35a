package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"finbench/internal/perf"
)

// The persistent fork-join pool. OpenMP runtimes keep one thread team
// alive across parallel regions, so a `#pragma omp for` over a small batch
// costs a team wake-up, not thread creation; the original implementation
// here spawned fresh goroutines and a new WaitGroup per loop, which at
// small grain costs more than the loop body. The pool replaces the spawn
// with a handoff: long-lived workers park on a sync.Cond and each parallel
// region enqueues (job, slot) tasks that the workers — and the submitting
// goroutine itself — drain.
//
// Scheduling rules:
//
//   - Slot 0 of every job runs on the submitting goroutine (the "master
//     thread" of the region), so a region that collapses to one worker
//     never touches the queue.
//   - After running slot 0 the submitter helps drain the queue until its
//     own job completes. Helping is what makes nested regions safe: a
//     task that itself opens a parallel region can always make progress
//     by executing queued tasks, so the pool never deadlocks waiting for
//     a worker that is waiting for it.
//   - Helper workers are started lazily, up to GOMAXPROCS-1 (grown if
//     GOMAXPROCS rises later; never shrunk — surplus workers just park).
//     A job may have more slots than workers: the excess tasks wait in
//     the queue and are picked up as slots free, exactly like OpenMP
//     chunks on a smaller team.
type job struct {
	run func(slot int)
	// pending counts unfinished slots; the goroutine that decrements it
	// to zero closes done.
	pending atomic.Int64
	done    chan struct{}
}

// finish runs slot s of the job and signals completion of the last slot.
func (j *job) finish(s int) {
	j.run(s)
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
}

type task struct {
	j    *job
	slot int
}

type pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []task // LIFO: newest tasks first, for locality and fast self-help
	spawned  int    // helper workers started so far
	sleeping int    // helpers currently parked in cond.Wait

	// Introspection counters (see Sched). All monotonic.
	jobs       atomic.Uint64 // fork-join regions that actually forked
	serial     atomic.Uint64 // regions that ran inline on the caller
	dispatched atomic.Uint64 // tasks enqueued for other goroutines
	handoffs   atomic.Uint64 // tasks executed by parked pool workers
	steals     atomic.Uint64 // queued tasks executed by a joining submitter
}

var defaultPool = newPool()

func newPool() *pool {
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// run executes fn(slot) for every slot in [0, slots), returning when all
// slots have completed. Slot 0 runs on the calling goroutine. static is
// the only caller and runs a single chunk inline, so slots >= 2 here.
func (p *pool) run(slots int, fn func(slot int)) {
	j := &job{run: fn, done: make(chan struct{})}
	j.pending.Store(int64(slots))
	p.jobs.Add(1)
	p.dispatched.Add(uint64(slots - 1))

	p.mu.Lock()
	p.ensureLocked(slots - 1)
	// Enqueue high slots first so the LIFO pop hands out slot 1 first,
	// keeping task pickup roughly in index order.
	for s := slots - 1; s >= 1; s-- {
		p.queue = append(p.queue, task{j, s})
	}
	if p.sleeping > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()

	j.finish(0)

	// Join by helping: drain queued tasks (ours or another job's) until
	// our job has no unfinished slots, then block for the stragglers.
	for j.pending.Load() > 0 {
		t, ok := p.tryPop()
		if !ok {
			break
		}
		p.steals.Add(1)
		t.j.finish(t.slot)
	}
	if j.pending.Load() > 0 {
		<-j.done
	}
}

// ensureLocked grows the helper-worker set toward want, capped at
// GOMAXPROCS-1 (the submitting goroutine is the remaining worker). Called
// with p.mu held.
func (p *pool) ensureLocked(want int) {
	if max := runtime.GOMAXPROCS(0) - 1; want > max {
		want = max
	}
	for p.spawned < want {
		p.spawned++
		go p.worker()
	}
}

// worker is the parked-helper loop: pop a task, run it, repark.
func (p *pool) worker() {
	p.mu.Lock()
	for {
		for len(p.queue) == 0 {
			p.sleeping++
			p.cond.Wait()
			p.sleeping--
		}
		t := p.popLocked()
		p.mu.Unlock()
		p.handoffs.Add(1)
		t.j.finish(t.slot)
		p.mu.Lock()
	}
}

func (p *pool) popLocked() task {
	n := len(p.queue) - 1
	t := p.queue[n]
	p.queue[n] = task{} // drop the job reference for GC
	p.queue = p.queue[:n]
	return t
}

// tryPop removes one task from the queue if any is waiting.
func (p *pool) tryPop() (task, bool) {
	p.mu.Lock()
	if len(p.queue) == 0 {
		p.mu.Unlock()
		return task{}, false
	}
	t := p.popLocked()
	p.mu.Unlock()
	return t, true
}

// sched snapshots the introspection counters.
func (p *pool) sched() perf.SchedStats {
	p.mu.Lock()
	workers := p.spawned
	p.mu.Unlock()
	return perf.SchedStats{
		Jobs:       p.jobs.Load(),
		Serial:     p.serial.Load(),
		Dispatched: p.dispatched.Load(),
		Handoffs:   p.handoffs.Load(),
		Steals:     p.steals.Load(),
		Workers:    uint64(workers),
	}
}

// Sched returns a snapshot of the pool's scheduling counters: how many
// regions forked vs. ran inline, how many chunk tasks were dispatched, and
// whether they were executed by parked workers (handoffs) or reclaimed by
// the submitting goroutine while joining (steals). Counters are monotonic;
// subtract two snapshots (perf.SchedStats.Delta) to attribute activity to
// a code region. benchreg snapshots record the delta across a benchmark
// run so the perf trajectory captures scheduling behavior alongside
// throughput.
func Sched() perf.SchedStats { return defaultPool.sched() }
