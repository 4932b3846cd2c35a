package parallel

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"finbench/internal/perf"
)

// coverage records which indices fn visited, detects overlap, and checks
// that every chunk seam is a multiple of align (a chunk may end off-seam
// only at n).
func coverage(t *testing.T, n, align int, launch func(fn func(lo, hi int))) {
	t.Helper()
	visits := make([]int32, n)
	launch(func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		if lo%align != 0 || (hi != n && hi%align != 0) {
			t.Errorf("range [%d,%d) of %d has a seam off the align=%d grid", lo, hi, n, align)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000, 1001} {
		coverage(t, n, 1, func(fn func(lo, hi int)) { For(n, fn) })
	}
}

// The one static decomposition: for every worker count and alignment the
// chunks cover [0,n) exactly once and every seam is a multiple of align.
func TestStaticCoversExactlyOnceOnAlignedSeams(t *testing.T) {
	for _, align := range []int{1, 4, 8} {
		for _, w := range []int{1, 2, 3, 5, 8, 16, 100} {
			for _, n := range []int{1, 7, 8, 64, 97, 1000, 1001} {
				coverage(t, n, align, func(fn func(lo, hi int)) {
					static(n, w, align, func(_, lo, hi int) { fn(lo, hi) })
				})
			}
		}
	}
}

func TestStaticSlotIdsDense(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	static(1000, 4, 1, func(slot, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if seen[slot] {
			t.Errorf("slot id %d reused", slot)
		}
		seen[slot] = true
	})
	if len(seen) != 4 {
		t.Fatalf("%d slots ran, want 4", len(seen))
	}
	for id := range seen {
		if id < 0 || id >= len(seen) {
			t.Fatalf("slot id %d not dense in [0,%d)", id, len(seen))
		}
	}
}

func TestForEdgeCases(t *testing.T) {
	For(0, func(lo, hi int) { t.Error("called for n=0") })
	For(-5, func(lo, hi int) { t.Error("called for n<0") })
	For(10, nil) // must not panic
	if err := Region(context.Background(), 0, 8, nil, func(lo, hi int, _ *perf.Counts) { t.Error("called for n=0") }); err != nil {
		t.Fatalf("empty Region = %v", err)
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	// Sum of 1..n.
	n := 100000
	got := ReduceFloat64(n, 1000, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += float64(i + 1)
		}
		return s
	})
	want := float64(n) * float64(n+1) / 2
	if got != want {
		t.Fatalf("ReduceFloat64 = %g, want %g", got, want)
	}
}

func TestReduceFloat64Empty(t *testing.T) {
	if got := ReduceFloat64(0, 1, func(lo, hi int) float64 { return 1 }); got != 0 {
		t.Fatalf("empty reduce = %g", got)
	}
}

func TestReduceDeterministic(t *testing.T) {
	// Block partials are combined in block order, so repeated runs and
	// every worker count agree bit-for-bit.
	f := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	var a float64
	withProcs(t, 1, func() { a = ReduceFloat64(12345, 100, f) })
	for _, w := range []int{1, 2, 3, 8} {
		withProcs(t, w, func() {
			for r := 0; r < 3; r++ {
				if b := ReduceFloat64(12345, 100, f); b != a {
					t.Fatalf("%d workers: reduce %g != %g", w, b, a)
				}
			}
		})
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers < 1")
	}
}

// Property: For visits each index exactly once for arbitrary n.
func TestForCoverageQuick(t *testing.T) {
	f := func(nn uint16) bool {
		n := int(nn)%2000 + 1
		visits := make([]int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for _, v := range visits {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// withProcs temporarily raises GOMAXPROCS so the multi-worker paths run
// even on single-core machines (goroutines interleave regardless).
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestReduceFloat64MultiWorker(t *testing.T) {
	withProcs(t, 4, func() {
		n := 100000
		got := ReduceFloat64(n, 1000, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i + 1)
			}
			return s
		})
		want := float64(n) * float64(n+1) / 2
		if got != want {
			t.Fatalf("multi-worker reduce = %g, want %g", got, want)
		}
	})
}

func TestForMultiWorker(t *testing.T) {
	withProcs(t, 8, func() {
		coverage(t, 999, 1, func(fn func(lo, hi int)) { For(999, fn) })
	})
}

func TestPoolRunSlotsExactlyOnce(t *testing.T) {
	withProcs(t, 4, func() {
		for _, slots := range []int{2, 3, 7, 64} {
			visits := make([]int32, slots)
			defaultPool.run(slots, func(slot int) {
				atomic.AddInt32(&visits[slot], 1)
			})
			for s, v := range visits {
				if v != 1 {
					t.Fatalf("slots=%d: slot %d ran %d times", slots, s, v)
				}
			}
		}
	})
}

// Slots may exceed the worker pool: excess tasks queue and still all run.
func TestPoolRunMoreSlotsThanWorkers(t *testing.T) {
	withProcs(t, 2, func() {
		const slots = 50
		var ran int32
		defaultPool.run(slots, func(int) { atomic.AddInt32(&ran, 1) })
		if ran != slots {
			t.Fatalf("ran %d of %d slots", ran, slots)
		}
	})
}

// Region covers [0,n) exactly once for every alignment, including one at
// or past n, which leaves a single inline chunk.
func TestRegionCoversExactlyOnce(t *testing.T) {
	for _, align := range []int{1, 3, 10, 97, 200} {
		coverage(t, 97, align, func(fn func(lo, hi int)) {
			_ = Region(context.Background(), 97, align, nil, func(lo, hi int, _ *perf.Counts) { fn(lo, hi) })
		})
	}
}

func TestRegionMultiWorker(t *testing.T) {
	withProcs(t, 4, func() {
		for _, c := range []struct{ n, align int }{{1000, 4}, {5, 2}, {7, 8}} {
			coverage(t, c.n, c.align, func(fn func(lo, hi int)) {
				_ = Region(context.Background(), c.n, c.align, nil, func(lo, hi int, _ *perf.Counts) { fn(lo, hi) })
			})
		}
		if err := Region(context.Background(), 0, 1, nil, func(lo, hi int, _ *perf.Counts) { t.Error("called for n=0") }); err != nil {
			t.Errorf("Region(n=0) = %v, want nil", err)
		}
		if err := Region(context.Background(), 10, 1, nil, nil); err != nil {
			t.Errorf("Region(nil fn) = %v, want nil", err)
		}
	})
}

// The static decomposition hands out at most one chunk per worker, all of
// one size (n/workers rounded up to a multiple of align) but the last.
func TestStaticChunkSizes(t *testing.T) {
	for _, c := range []struct {
		n, workers, align int
		want              []int
	}{
		{1000, 4, 1, []int{250, 250, 250, 250}},
		{1001, 4, 1, []int{251, 251, 251, 248}},
		{1001, 4, 8, []int{256, 256, 256, 233}},
		{10, 4, 4, []int{4, 4, 2}},
		{10, 4, 16, []int{10}},
	} {
		var mu sync.Mutex
		got := make([]int, c.workers)
		static(c.n, c.workers, c.align, func(slot, lo, hi int) {
			mu.Lock()
			got[slot] = hi - lo
			mu.Unlock()
		})
		got = got[:len(c.want)]
		if !slices.Equal(got, c.want) {
			t.Errorf("static(%d, %d, %d) chunk sizes %v, want %v", c.n, c.workers, c.align, got, c.want)
		}
	}
}

// n smaller than the worker count: every loop form must clamp and cover.
func TestSmallNManyWorkers(t *testing.T) {
	withProcs(t, 8, func() {
		for n := 1; n <= 3; n++ {
			coverage(t, n, 1, func(fn func(lo, hi int)) { For(n, fn) })
			coverage(t, n, 1, func(fn func(lo, hi int)) {
				ReduceFloat64(n, 1, func(lo, hi int) float64 { fn(lo, hi); return 0 })
			})
			coverage(t, n, 8, func(fn func(lo, hi int)) {
				_ = Region(context.Background(), n, 8, nil, func(lo, hi int, _ *perf.Counts) { fn(lo, hi) })
			})
		}
	})
}

// A nested For inside a pool task must complete rather than deadlock: the
// inner region's tasks are drained by the joining goroutine itself when
// every pool worker is busy with outer tasks.
func TestNestedForNoDeadlock(t *testing.T) {
	withProcs(t, 4, func() {
		const outer, inner = 16, 64
		var total int64
		For(outer, func(olo, ohi int) {
			for o := olo; o < ohi; o++ {
				For(inner, func(lo, hi int) {
					atomic.AddInt64(&total, int64(hi-lo))
				})
			}
		})
		if total != outer*inner {
			t.Fatalf("nested total = %d, want %d", total, outer*inner)
		}
	})
}

// Deeper nesting mixing the loop forms.
func TestNestedMixedSchedules(t *testing.T) {
	withProcs(t, 4, func() {
		var total int64
		_ = Region(context.Background(), 8, 1, nil, func(olo, ohi int, _ *perf.Counts) {
			for o := olo; o < ohi; o++ {
				For(32, func(lo, hi int) {
					got := ReduceFloat64(hi-lo, 1, func(a, b int) float64 { return float64(b - a) })
					atomic.AddInt64(&total, int64(got))
				})
			}
		})
		if total != 8*32 {
			t.Fatalf("nested total = %d, want %d", total, 8*32)
		}
	})
}

func TestRegionCountsAndCoverage(t *testing.T) {
	withProcs(t, 4, func() {
		for _, align := range []int{1, 4, 8} {
			var c perf.Counts
			coverage(t, 1001, align, func(fn func(lo, hi int)) {
				err := Region(context.Background(), 1001, align, &c, func(lo, hi int, local *perf.Counts) {
					if local == nil {
						t.Error("nil local counts with non-nil c")
						return
					}
					local.Add(perf.OpScalar, uint64(hi-lo))
					local.Items += uint64(hi - lo)
					fn(lo, hi)
				})
				if err != nil {
					t.Errorf("Region(Background) = %v, want nil", err)
				}
			})
			if got := c.N[perf.OpScalar]; got != 1001 {
				t.Fatalf("merged OpScalar = %d, want 1001", got)
			}
			if c.Items != 1001 {
				t.Fatalf("merged Items = %d, want 1001", c.Items)
			}
		}
	})
}

func TestRegionNilCounts(t *testing.T) {
	coverage(t, 100, 1, func(fn func(lo, hi int)) {
		_ = Region(context.Background(), 100, 1, nil, func(lo, hi int, local *perf.Counts) {
			if local != nil {
				t.Error("expected nil local counts for nil c")
			}
			fn(lo, hi)
		})
	})
}

func TestRegionAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c perf.Counts
	err := Region(ctx, 1<<12, 1, &c, func(lo, hi int, local *perf.Counts) {
		local.Add(perf.OpScalar, uint64(hi-lo))
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.N[perf.OpScalar]; got != 0 {
		t.Fatalf("cancelled region still counted %d items", got)
	}
}

// A region cancelled while it runs reports the cancellation even though
// chunks already started run to completion; every chunk that starts after
// the cancel is skipped, so the run is partial.
func TestRegionCancelledMidway(t *testing.T) {
	withProcs(t, 4, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const n = 1 << 12
		var ran atomic.Int64
		err := Region(ctx, n, 1, nil, func(lo, hi int, _ *perf.Counts) {
			cancel()
			ran.Add(int64(hi - lo))
		})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := ran.Load(); got == 0 || got > n {
			t.Fatalf("ran %d of %d items", got, n)
		}
	})
}

// Scheduling counters must account for every dispatched task once the
// region joins: dispatched == handoffs + steals, and forked regions show
// up in Jobs.
func TestSchedCountersBalance(t *testing.T) {
	withProcs(t, 4, func() {
		before := Sched()
		for i := 0; i < 50; i++ {
			For(256, func(lo, hi int) {})
		}
		d := Sched().Delta(before)
		if d.Jobs == 0 {
			t.Fatal("no forked regions recorded at GOMAXPROCS=4")
		}
		if d.Dispatched != d.Handoffs+d.Steals {
			t.Fatalf("dispatched=%d != handoffs=%d + steals=%d",
				d.Dispatched, d.Handoffs, d.Steals)
		}
		if d.Workers == 0 {
			t.Fatal("no pool workers after forked regions")
		}
	})
}

func TestSchedCountersSerial(t *testing.T) {
	before := Sched()
	static(100, 1, 1, func(_, lo, hi int) {})
	d := Sched().Delta(before)
	if d.Serial == 0 {
		t.Fatal("single-worker region not counted as serial")
	}
}
