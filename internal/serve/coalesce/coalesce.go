// Package coalesce merges small concurrent closed-form pricing requests
// into SOA mega-batches, and keeps the size-classed batch freelists
// (GetBatch, PutBatch) the server prices each closed-form request in.
// The server no longer coalesces: measured on two cores, merging never
// bought throughput and serialised overlapping requests behind one
// flusher, so each request is priced alone. The Coalescer stays only for
// the benchmark/ package's coalescer metrics (ROADMAP item 27(d)).
//
// Batching is natural (group commit), never bought with a wait: a ticket
// that finds no flush running prices itself at once on its own goroutine;
// tickets that arrive while a flush runs queue behind it, and when it ends
// the queue is handed, as one batch, to its first ticket, whose goroutine
// prices it and passes the flusher role on in turn. A size threshold
// bounds the queue: the ticket that fills it prices it at once, beside
// the running flush.
//
// Correctness rests on composition independence: the LevelAdvanced engine
// is purely elementwise, so pricing a request inside a mega-batch is
// bit-identical to pricing it alone (pinned by
// TestAdvancedCompositionIndependence at the repo root). Methods whose
// results depend on batch decomposition (Monte Carlo's per-worker RNG
// streams) must never be coalesced.
package coalesce // finlint:hot — the submit/flush path runs per request; allocation-free loops enforced by internal/lint

import (
	"context"
	"sync"
	"time"

	"finbench"
)

// Ticket is one request's slice of a future mega-batch. The caller fills
// the input slices; after Price returns, Calls and Puts hold the priced
// rows for this ticket, copied out of the mega-batch so the batch scratch
// can be recycled (valid until the ticket is dropped or returned to the
// pool with PutTicket).
type Ticket struct {
	Spots, Strikes, Expiries []float64

	// Calls and Puts are filled by the flush on success.
	Calls, Puts []float64
	// BatchN is the size of the mega-batch this ticket was priced in.
	BatchN int
	// Coalesced reports whether other tickets shared the flush.
	Coalesced bool
	// Err is the flush's error, or context.Canceled when Close failed the
	// ticket.
	Err error

	// done wakes the ticket's goroutine: to flush lead, the batch it heads,
	// as the new flusher; with lead nil, because the ticket is complete.
	done chan struct{}
	lead *ticketList
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
	for _, t := range tickets {
		n += len(t.Spots)
	}
	mega := GetBatch(n)
	lo := 0
	for _, t := range tickets {
		copy(mega.Spots[lo:], t.Spots)
		copy(mega.Strikes[lo:], t.Strikes)
		copy(mega.Expiries[lo:], t.Expiries)
		lo += len(t.Spots)
	}
	err := finbench.PriceBatchCtx(context.Background(), mega, c.mkt, finbench.LevelAdvanced)

	lo = 0
	for _, t := range tickets {
		hi := lo + len(t.Spots)
		if err != nil {
			t.Err = err
		} else {
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
