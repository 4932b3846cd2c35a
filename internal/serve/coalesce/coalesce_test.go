package coalesce

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finbench"
)

var testMkt = finbench.Market{Rate: 0.02, Volatility: 0.3}

func mkTicket(rng *rand.Rand, n int) *Ticket {
	t := &Ticket{
		Spots:    make([]float64, n),
		Strikes:  make([]float64, n),
		Expiries: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		t.Spots[i] = 50 + 100*rng.Float64()
		t.Strikes[i] = 50 + 100*rng.Float64()
		t.Expiries[i] = 0.1 + 3*rng.Float64()
	}
	return t
}

// priceDirect prices a ticket's options alone through the same engine; by
// composition independence this must bit-match whatever mega-batch the
// coalescer placed them in.
func priceDirect(t *testing.T, tk *Ticket) (calls, puts []float64) {
	t.Helper()
	n := len(tk.Spots)
	b := finbench.NewBatch(n)
	copy(b.Spots, tk.Spots)
	copy(b.Strikes, tk.Strikes)
	copy(b.Expiries, tk.Expiries)
	if err := finbench.PriceBatch(b, testMkt, finbench.LevelAdvanced); err != nil {
		t.Fatal(err)
	}
	return b.Calls, b.Puts
}

// holdRole takes the flusher role as a running flush would, so tickets
// submitted next queue behind it deterministically — no clock involved.
func holdRole(c *Coalescer) {
	c.mu.Lock()
	c.flushing = true
	c.mu.Unlock()
}

// state reads the flusher role and the queue length under the lock.
func state(c *Coalescer) (flushing bool, queued int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending != nil {
		queued = len(c.pending.tickets)
	}
	return c.flushing, queued
}

// submitBehind starts one Price per ticket and returns once all of them
// are queued (in slice order) behind the held role. The returned func
// waits for every Price to return and reports their errors.
func submitBehind(c *Coalescer, tickets []*Ticket) (wait func() []error) {
	errs := make([]error, len(tickets))
	var wg sync.WaitGroup
	for i := range tickets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Price(tickets[i])
		}(i)
		for _, queued := state(c); queued != i+1; _, queued = state(c) {
			runtime.Gosched()
		}
	}
	return func() []error { wg.Wait(); return errs }
}

func checkBitEqualDirect(t *testing.T, name string, tk *Ticket) {
	t.Helper()
	wantCalls, wantPuts := priceDirect(t, tk)
	for j := range wantCalls {
		if tk.Calls[j] != wantCalls[j] || tk.Puts[j] != wantPuts[j] {
			t.Fatalf("%s option %d: coalesced (%v,%v) != direct (%v,%v)",
				name, j, tk.Calls[j], tk.Puts[j], wantCalls[j], wantPuts[j])
		}
	}
}

// TestLoneTicketFlushesAtOnce: a ticket that finds no flush in progress is
// priced on its own goroutine, now. The hour-long window is the one New
// ignores; behind a window timer this test hangs.
func TestLoneTicketFlushesAtOnce(t *testing.T) {
	c := New(testMkt, time.Hour, 1<<20, 0)
	defer c.Close()
	tk := mkTicket(rand.New(rand.NewSource(1)), 16)
	if err := c.Price(tk); err != nil {
		t.Fatal(err)
	}
	if tk.BatchN != 16 || tk.Coalesced {
		t.Errorf("BatchN=%d Coalesced=%v, want solo 16", tk.BatchN, tk.Coalesced)
	}
	checkBitEqualDirect(t, "lone ticket", tk)
	if snap := c.Snapshot(); snap.Flushes != 1 || snap.SoloFlushes != 1 {
		t.Errorf("flushes = %d, solo = %d, want 1 and 1", snap.Flushes, snap.SoloFlushes)
	}
	if flushing, queued := state(c); flushing || queued != 0 {
		t.Error("flusher role or queue left behind by a lone ticket")
	}
}

// TestCoalescerMergesConcurrentTickets: tickets that arrive while a flush
// runs ride one batch, handed to the first of them when that flush ends —
// whose own ticket is priced in the batch it leads.
func TestCoalescerMergesConcurrentTickets(t *testing.T) {
	c := New(testMkt, 0, 1<<20, 0)
	defer c.Close()

	const clients = 8
	tickets := make([]*Ticket, clients)
	total := 0
	for i := range tickets {
		tickets[i] = mkTicket(rand.New(rand.NewSource(int64(i)+1)), 16+i)
		total += 16 + i
	}
	holdRole(c)
	wait := submitBehind(c, tickets)
	c.handOff() // the held flush ends
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	for i, tk := range tickets {
		if !tk.Coalesced || tk.BatchN != total {
			t.Errorf("ticket %d: Coalesced=%v BatchN=%d, want true and %d", i, tk.Coalesced, tk.BatchN, total)
		}
		checkBitEqualDirect(t, "merged ticket", tk)
	}
	want := Stats{Flushes: 1, CoalescedTickets: clients, BatchedOptions: uint64(total)}
	if snap := c.Snapshot(); snap != want {
		t.Errorf("counters = %+v, want %+v", snap, want)
	}
	if flushing, queued := state(c); flushing || queued != 0 {
		t.Error("the handed-on leader did not clear the role after an empty hand-off")
	}
}

// TestCoalescerThresholdFlushesInline: the ticket that fills the queue
// prices it on its own goroutine beside the running flush, whose flusher
// keeps the role.
func TestCoalescerThresholdFlushesInline(t *testing.T) {
	c := New(testMkt, 0, 32, 0)
	defer c.Close()
	holdRole(c)
	queued := []*Ticket{mkTicket(rand.New(rand.NewSource(8)), 8)}
	wait := submitBehind(c, queued)
	tk := mkTicket(rand.New(rand.NewSource(9)), 40)
	if err := c.Price(tk); err != nil {
		t.Fatal(err)
	}
	if err := wait()[0]; err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Ticket{queued[0], tk} {
		if got.BatchN != 48 || !got.Coalesced {
			t.Errorf("BatchN=%d Coalesced=%v, want 48 coalesced", got.BatchN, got.Coalesced)
		}
		checkBitEqualDirect(t, "threshold ticket", got)
	}
	if held, _ := state(c); !held {
		t.Error("a threshold flush released a role it did not hold")
	}
	c.handOff()

	// With no flush running the same ticket is simply a lone one.
	if err := c.Price(tk); err != nil {
		t.Fatal(err)
	}
	if tk.BatchN != 40 || tk.Coalesced {
		t.Errorf("BatchN=%d Coalesced=%v, want solo 40", tk.BatchN, tk.Coalesced)
	}
	if snap := c.Snapshot(); snap.Flushes != 2 || snap.SoloFlushes != 1 {
		t.Errorf("flushes = %d, solo = %d, want 2 and 1", snap.Flushes, snap.SoloFlushes)
	}
}

func TestCoalescerExpiredDeadlineFailsBatch(t *testing.T) {
	c := New(testMkt, 0, 1<<20, 0)
	defer c.Close()
	tk := mkTicket(rand.New(rand.NewSource(3)), 8)
	tk.Deadline = time.Now().Add(-time.Second)
	err := c.Price(tk)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCoalescerCloseFailsPending(t *testing.T) {
	c := New(testMkt, 0, 1<<20, 0)
	holdRole(c)
	tickets := []*Ticket{
		mkTicket(rand.New(rand.NewSource(4)), 4),
		mkTicket(rand.New(rand.NewSource(5)), 4),
	}
	wait := submitBehind(c, tickets)
	c.Close()
	for i, err := range wait() {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued ticket %d: err = %v, want canceled", i, err)
		}
	}
	if err := c.Price(mkTicket(rand.New(rand.NewSource(6)), 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-close submit: %v, want canceled", err)
	}
	c.handOff() // the flush Close ran beside ends with nothing to hand on
	if snap := c.Snapshot(); snap.Flushes != 0 {
		t.Errorf("flushes = %d after Close failed every ticket, want 0", snap.Flushes)
	}
}

// TestProfileEveryOneSamplesEveryFlush pins the profileEvery=1 fix:
// flushIdx%1 is always 0, so the old `== 1` comparison never sampled.
func TestProfileEveryOneSamplesEveryFlush(t *testing.T) {
	c := New(testMkt, 0, 1, 1) // sequential tickets: every one flushes alone
	defer c.Close()
	var prev uint64
	for i := 0; i < 3; i++ {
		if err := c.Price(mkTicket(rand.New(rand.NewSource(int64(i)+21)), 8)); err != nil {
			t.Fatal(err)
		}
		mix := c.OpMix()
		if mix.Items <= prev {
			t.Fatalf("flush %d: op mix items = %d (previous %d); profileEvery=1 must sample every flush", i+1, mix.Items, prev)
		}
		prev = mix.Items
	}
}

// TestPerTicketDeadlineCheckedAtDistribution: a ticket whose own deadline
// expired while riding a flush bounded by a later deadline must fail with
// DeadlineExceeded, not receive a 200-grade result after its deadline.
func TestPerTicketDeadlineCheckedAtDistribution(t *testing.T) {
	c := New(testMkt, 0, 1<<20, 0)
	defer c.Close()

	short := mkTicket(rand.New(rand.NewSource(31)), 4)
	short.Deadline = time.Now().Add(-time.Millisecond)
	long := mkTicket(rand.New(rand.NewSource(32)), 4)
	long.Deadline = time.Now().Add(10 * time.Second)

	holdRole(c)
	wait := submitBehind(c, []*Ticket{short, long})
	c.handOff()
	errs := wait()

	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Errorf("short-deadline ticket: err = %v, want DeadlineExceeded", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("long-deadline ticket: %v", errs[1])
	}
	if !long.Coalesced || long.BatchN != 8 {
		t.Errorf("long ticket: Coalesced=%v BatchN=%d, want it to have shared the flush", long.Coalesced, long.BatchN)
	}
	checkBitEqualDirect(t, "long ticket", long)
}

// TestBatchTicketPools pins the freelist contract: pooled batches and
// tickets come back correctly sized, and the recycled distribution copies
// survive the mega-batch being returned to the pool.
func TestBatchTicketPools(t *testing.T) {
	for _, n := range []int{1, 3, 16, 100, 1000} {
		b := GetBatch(n)
		if len(b.Spots) != n || len(b.Strikes) != n || len(b.Expiries) != n ||
			len(b.Calls) != n || len(b.Puts) != n {
			t.Fatalf("GetBatch(%d): lengths %d/%d/%d/%d/%d", n,
				len(b.Spots), len(b.Strikes), len(b.Expiries), len(b.Calls), len(b.Puts))
		}
		PutBatch(b)
		tk := GetTicket(n)
		if len(tk.Spots) != n || len(tk.Calls) != n || len(tk.Puts) != n {
			t.Fatalf("GetTicket(%d): lengths %d/%d/%d", n, len(tk.Spots), len(tk.Calls), len(tk.Puts))
		}
		PutTicket(tk)
	}

	// A pooled ticket priced through the coalescer keeps its results after
	// the flush's mega-batch scratch is recycled into later flushes.
	c := New(testMkt, 0, 1, 0)
	defer c.Close()
	rng := rand.New(rand.NewSource(51))
	first := GetTicket(8)
	src := mkTicket(rng, 8)
	copy(first.Spots, src.Spots)
	copy(first.Strikes, src.Strikes)
	copy(first.Expiries, src.Expiries)
	if err := c.Price(first); err != nil {
		t.Fatal(err)
	}
	wantCalls, wantPuts := priceDirect(t, first)
	for i := 0; i < 4; i++ { // churn the batch pool with other flushes
		if err := c.Price(mkTicket(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for j := range wantCalls {
		if first.Calls[j] != wantCalls[j] || first.Puts[j] != wantPuts[j] {
			t.Fatalf("option %d: pooled ticket results corrupted by batch recycling", j)
		}
	}
	PutTicket(first)
}

// TestCoalescerStress hammers Price/Snapshot/OpMix concurrently with a
// queue bound small enough that role hand-offs and threshold flushes
// interleave. Every ticket is bit-verified, and the counters must account
// for every ticket and option exactly once; the race detector (check.sh
// runs this package under -race at -cpu 1,2,4,8) does the rest.
func TestCoalescerStress(t *testing.T) {
	c := New(testMkt, 0, 96, 4)
	defer c.Close()

	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	var completions, options atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for r := 0; r < rounds; r++ {
				tk := mkTicket(rng, 1+rng.Intn(64))
				if err := c.Price(tk); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				completions.Add(1)
				options.Add(uint64(len(tk.Spots)))
				wantCalls, wantPuts := priceDirect(t, tk)
				for j := range wantCalls {
					if tk.Calls[j] != wantCalls[j] || tk.Puts[j] != wantPuts[j] {
						t.Errorf("worker %d round %d option %d mismatch", w, r, j)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Snapshot()
				_ = c.OpMix()
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(done)

	snap := c.Snapshot()
	if got := completions.Load(); got != workers*rounds {
		t.Errorf("completions = %d, want %d (tickets in == completions out)", got, workers*rounds)
	}
	if got := snap.SoloFlushes + snap.CoalescedTickets; got != workers*rounds {
		t.Errorf("tickets flushed = %d, want %d: %+v", got, workers*rounds, snap)
	}
	if snap.BatchedOptions != options.Load() {
		t.Errorf("BatchedOptions = %d, want %d", snap.BatchedOptions, options.Load())
	}
	if flushing, queued := state(c); flushing || queued != 0 {
		t.Error("flusher role or queue left behind after every Price returned")
	}
}
