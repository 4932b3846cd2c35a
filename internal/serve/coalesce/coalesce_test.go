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
	for i, tk := range tickets {
		if tk.BatchN != 0 {
			t.Errorf("queued ticket %d: BatchN=%d after Close failed it, want 0", i, tk.BatchN)
		}
	}
}

// TestProfileEveryIgnored: New's profileEvery argument changes nothing.
// A coalescer told to sample every flush prices each flush once, with the
// batches and bits of one told never to sample.
func TestProfileEveryIgnored(t *testing.T) {
	sampled, plain := New(testMkt, 0, 1, 1), New(testMkt, 0, 1, 0)
	defer sampled.Close()
	defer plain.Close()
	for i := 0; i < 3; i++ {
		a := mkTicket(rand.New(rand.NewSource(int64(i)+21)), 8)
		b := mkTicket(rand.New(rand.NewSource(int64(i)+21)), 8)
		if err := sampled.Price(a); err != nil {
			t.Fatal(err)
		}
		if err := plain.Price(b); err != nil {
			t.Fatal(err)
		}
		for j := range a.Calls {
			if a.Calls[j] != b.Calls[j] || a.Puts[j] != b.Puts[j] {
				t.Fatalf("ticket %d option %d: (%v,%v) with profileEvery=1, (%v,%v) with 0",
					i, j, a.Calls[j], a.Puts[j], b.Calls[j], b.Puts[j])
			}
		}
		checkBitEqualDirect(t, "profileEvery=1 ticket", a)
		if a.BatchN != 8 || a.Coalesced || b.BatchN != 8 || b.Coalesced {
			t.Errorf("ticket %d: BatchN %d/%d Coalesced %v/%v, want solo 8 in both",
				i, a.BatchN, b.BatchN, a.Coalesced, b.Coalesced)
		}
	}
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

// TestCoalescerStress hammers Price from many goroutines with a queue
// bound small enough that role hand-offs and threshold flushes
// interleave. Every ticket is bit-verified, every ticket's batch holds it
// and stops within one ticket of the bound, and a ticket reports a merge
// exactly when its batch holds other options; the race detector (check.sh
// runs this package under -race at -cpu 1,2,4,8) does the rest.
func TestCoalescerStress(t *testing.T) {
	const (
		maxBatch = 96
		maxOpts  = 64
		workers  = 8
		rounds   = 200
	)
	c := New(testMkt, 0, maxBatch, 0)
	defer c.Close()

	var wg sync.WaitGroup
	var completions atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for r := 0; r < rounds; r++ {
				tk := mkTicket(rng, 1+rng.Intn(maxOpts))
				if err := c.Price(tk); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				completions.Add(1)
				if n := len(tk.Spots); tk.BatchN < n || tk.BatchN >= maxBatch+maxOpts || tk.Coalesced != (tk.BatchN > n) {
					t.Errorf("worker %d round %d: %d options in a batch of %d, Coalesced=%v", w, r, n, tk.BatchN, tk.Coalesced)
					return
				}
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
	wg.Wait()

	if got := completions.Load(); got != workers*rounds {
		t.Errorf("completions = %d, want %d (tickets in == completions out)", got, workers*rounds)
	}
	if flushing, queued := state(c); flushing || queued != 0 {
		t.Error("flusher role or queue left behind after every Price returned")
	}
}
