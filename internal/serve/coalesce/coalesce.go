// Package coalesce merges small concurrent closed-form pricing requests
// into SOA mega-batches. Throughput of the Advanced Black-Scholes engine
// grows with batch size (amortized VML chunks, one parallel region per
// batch instead of one per request), and batching is natural (group
// commit), never bought with a wait: a ticket that finds no flush running
// prices itself at once on its own goroutine; tickets that arrive while a
// flush runs queue behind it, and when it ends the queue is handed, as one
// batch, to its first ticket, whose goroutine prices it and passes the
// flusher role on in turn. A size threshold bounds the queue: the ticket
// that fills it prices it at once, beside the running flush.
//
// Correctness rests on composition independence: the LevelAdvanced engine
// is purely elementwise, so pricing a request inside a mega-batch is
// bit-identical to pricing it alone (pinned by
// TestAdvancedCompositionIndependence at the repo root). Methods whose
// results depend on batch decomposition (Monte Carlo's per-worker RNG
// streams) must never be coalesced and are priced per-request by the
// server instead.
package coalesce // finlint:hot — the submit/flush path runs per request; allocation-free loops enforced by internal/lint

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"finbench"
	"finbench/internal/serve/deadline"
)

// Ticket is one request's slice of a future mega-batch. The caller fills
// the input slices; after Price returns, Calls and Puts hold the priced
// rows for this ticket, copied out of the mega-batch so the batch scratch
// can be recycled (valid until the ticket is dropped or returned to the
// pool with PutTicket).
type Ticket struct {
	Spots, Strikes, Expiries []float64
	// Deadline bounds the flush that prices this ticket; zero means none.
	// It is also checked per ticket when results are distributed: a ticket
	// whose own deadline expired while riding a flush bounded by a later
	// deadline fails with context.DeadlineExceeded instead of returning a
	// price after its deadline.
	Deadline time.Time

	// Calls and Puts are filled by the flush on success.
	Calls, Puts []float64
	// BatchN is the size of the mega-batch this ticket was priced in.
	BatchN int
	// Coalesced reports whether other tickets shared the flush.
	Coalesced bool
	// Err is the flush error (context cancellation), if any.
	Err error

	// done wakes the ticket's goroutine: to flush lead, the batch it heads,
	// as the new flusher; with lead nil, because the ticket is complete.
	done chan struct{}
	lead *ticketList
}

// Stats is a snapshot of the coalescer's counters.
type Stats struct {
	// Flushes counts mega-batch pricings; SoloFlushes the subset that
	// contained a single ticket.
	Flushes, SoloFlushes uint64
	// CoalescedTickets counts tickets that shared a flush with at least
	// one other ticket; BatchedOptions sums options across all flushes.
	CoalescedTickets, BatchedOptions uint64
}

// Coalescer accumulates tickets and flushes them as one batch.
type Coalescer struct {
	mkt      finbench.Market
	maxBatch int

	mu       sync.Mutex
	pending  *ticketList // nil when nothing is queued
	pendingN int
	// flushing is the flusher role. Tickets are pending only while some
	// goroutine holds it, so none waits on anything but a running flush.
	flushing bool
	closed   bool

	flushes, solo, coalesced, batched atomic.Uint64
}

// New builds a coalescer pricing against mkt. maxBatch bounds the queue:
// the ticket that brings it to that many options prices it at once.
// window and profileEvery are ignored: they stay only until the frozen
// benchmark/ package, which passes them, can be corrected (ROADMAP
// item 1a-i).
func New(mkt finbench.Market, window time.Duration, maxBatch int, profileEvery int) *Coalescer {
	return &Coalescer{mkt: mkt, maxBatch: maxBatch}
}

// Price submits the ticket and blocks until its batch is flushed. It
// returns the ticket's error (nil on success). Callers that arrive while
// a flush is running are merged into one batch behind it.
func (c *Coalescer) Price(t *Ticket) error {
	if t.done == nil {
		t.done = make(chan struct{}, 1)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		t.Err = context.Canceled
		return t.Err
	}
	if c.pending == nil {
		c.pending = ticketListPool.Get().(*ticketList)
	}
	c.pending.tickets = append(c.pending.tickets, t)
	c.pendingN += len(t.Spots)
	// Flush here and now when there is nobody to queue behind (taking the
	// flusher role), or when this ticket fills the queue (pricing it beside
	// the flusher, who keeps the role).
	takesRole := !c.flushing
	if takesRole || c.pendingN >= c.maxBatch {
		c.flushing = true
		batch := c.takeLocked()
		c.mu.Unlock()
		c.flush(batch, takesRole)
	} else {
		c.mu.Unlock()
	}
	for {
		<-t.done
		batch := t.lead
		if batch == nil {
			return t.Err
		}
		t.lead = nil
		c.flush(batch, true)
	}
}

// Close fails all queued tickets with context.Canceled. The coalescer
// accepts no further tickets; flushes already running complete.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	batch := c.takeLocked()
	c.mu.Unlock()
	if batch == nil {
		return
	}
	for _, t := range batch.tickets {
		t.Err = context.Canceled
		// finlint:ignore hotalloc struct{}{} is zero-size; a send of it never heap-allocates
		t.done <- struct{}{}
	}
	putTicketList(batch)
}

// Snapshot returns the current counters.
func (c *Coalescer) Snapshot() Stats {
	return Stats{
		Flushes:          c.flushes.Load(),
		SoloFlushes:      c.solo.Load(),
		CoalescedTickets: c.coalesced.Load(),
		BatchedOptions:   c.batched.Load(),
	}
}

// takeLocked detaches the pending batch (nil if none). Caller holds c.mu.
func (c *Coalescer) takeLocked() *ticketList {
	batch := c.pending
	c.pending = nil
	c.pendingN = 0
	return batch
}

// handOff ends a flusher's turn: whatever queued behind its flush goes,
// with the role, to that batch's first ticket; nothing queued clears it.
func (c *Coalescer) handOff() {
	c.mu.Lock()
	next := c.takeLocked()
	c.flushing = next != nil
	c.mu.Unlock()
	if next != nil {
		next.tickets[0].lead = next
		next.tickets[0].done <- struct{}{}
	}
}

// flush prices the batch as one SOA mega-batch and distributes results;
// the flusher (holdsRole) then hands the queue on.
func (c *Coalescer) flush(batch *ticketList, holdsRole bool) {
	tickets := batch.tickets
	n := 0
	var latest time.Time
	bounded := true
	for _, t := range tickets {
		n += len(t.Spots)
		if t.Deadline.IsZero() {
			bounded = false
		} else if t.Deadline.After(latest) {
			latest = t.Deadline
		}
	}
	mega := GetBatch(n)
	lo := 0
	for _, t := range tickets {
		copy(mega.Spots[lo:], t.Spots)
		copy(mega.Strikes[lo:], t.Strikes)
		copy(mega.Expiries[lo:], t.Expiries)
		lo += len(t.Spots)
	}
	// The flush deadline is the latest ticket deadline: when it fires,
	// every ticket in the batch has expired, so failing them all is
	// exact, not collateral damage. Tickets with earlier deadlines are
	// re-checked individually at distribution time below.
	ctx := context.Background()
	var dl *deadline.Ctx
	if bounded {
		dl = deadline.Acquire(ctx, latest)
		ctx = dl
	}
	err := finbench.PriceBatchCtx(ctx, mega, c.mkt, finbench.LevelAdvanced)
	if dl != nil {
		dl.Release()
	}

	c.flushes.Add(1)
	c.batched.Add(uint64(n))
	if len(tickets) == 1 {
		c.solo.Add(1)
	} else {
		c.coalesced.Add(uint64(len(tickets)))
	}

	now := time.Now()
	lo = 0
	for _, t := range tickets {
		hi := lo + len(t.Spots)
		switch {
		case err != nil:
			t.Err = err
		case !t.Deadline.IsZero() && now.After(t.Deadline):
			// The flush beat the *latest* deadline in the batch, but this
			// ticket's own deadline has passed: its caller asked not to
			// receive an answer after it.
			t.Err = context.DeadlineExceeded
		default:
			t.Calls = sizedFloats(t.Calls, hi-lo)
			t.Puts = sizedFloats(t.Puts, hi-lo)
			copy(t.Calls, mega.Calls[lo:hi])
			copy(t.Puts, mega.Puts[lo:hi])
			t.BatchN = n
			t.Coalesced = len(tickets) > 1
		}
		lo = hi
		// finlint:ignore hotalloc struct{}{} is zero-size; a send of it never heap-allocates
		t.done <- struct{}{}
	}
	if holdsRole {
		c.handOff()
	}
	PutBatch(mega)
	putTicketList(batch)
}
