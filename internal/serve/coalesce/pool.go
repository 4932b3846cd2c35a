package coalesce

import (
	"math/bits"
	"sync"

	"finbench"
)

// Freelists for the per-request objects of the serve hot path. The
// steady-state request path must not allocate (the benchreg servepath
// rows gate allocs/op), so batches, tickets, and the pending-ticket
// slices all recycle through size-classed sync.Pools. Get/Put pairs are
// bracketed by the finlint leakcheck pass (internal/lint/entrypoints.go,
// pooledGetPut): a leaked buffer is an allocation regression one PR
// later.

// maxBatchClass bounds the pooled batch size at 2^maxBatchClass options;
// larger batches (beyond MaxRequestOptions-scale mega-batches) fall back
// to plain allocation rather than pinning huge arrays in the pool.
const maxBatchClass = 21

var batchPools [maxBatchClass + 1]sync.Pool

// sizeClass is the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// GetBatch returns a finbench.Batch with all five slices of length n,
// recycled from a size-classed freelist. Contents are unspecified; the
// caller overwrites the inputs and the engine overwrites the outputs.
// Return it with PutBatch.
func GetBatch(n int) *finbench.Batch {
	if n < 1 {
		n = 1
	}
	class := sizeClass(n)
	if class > maxBatchClass {
		return finbench.NewBatch(n)
	}
	b, _ := batchPools[class].Get().(*finbench.Batch)
	if b == nil {
		b = finbench.NewBatch(1 << class)
	}
	b.Spots = b.Spots[:n]
	b.Strikes = b.Strikes[:n]
	b.Expiries = b.Expiries[:n]
	b.Calls = b.Calls[:n]
	b.Puts = b.Puts[:n]
	return b
}

// PutBatch recycles a batch obtained from GetBatch. The caller must not
// retain any view into the batch's slices. Batches not built by GetBatch
// (non-power-of-two capacity) are dropped.
func PutBatch(b *finbench.Batch) {
	c := cap(b.Spots)
	if c == 0 || c&(c-1) != 0 || c != cap(b.Strikes) || c != cap(b.Expiries) ||
		c != cap(b.Calls) || c != cap(b.Puts) {
		return
	}
	class := sizeClass(c)
	if class > maxBatchClass {
		return
	}
	batchPools[class].Put(b)
}

var ticketPool sync.Pool

// GetTicket returns a Ticket whose five float slices have length n
// (inputs for the caller to fill, outputs for the flush to copy into),
// recycled from a freelist. Return it with PutTicket once Calls/Puts
// have been consumed.
func GetTicket(n int) *Ticket {
	t, _ := ticketPool.Get().(*Ticket)
	if t == nil {
		t = &Ticket{done: make(chan struct{}, 1)}
	}
	t.Spots = sizedFloats(t.Spots, n)
	t.Strikes = sizedFloats(t.Strikes, n)
	t.Expiries = sizedFloats(t.Expiries, n)
	t.Calls = sizedFloats(t.Calls, n)
	t.Puts = sizedFloats(t.Puts, n)
	return t
}

// PutTicket recycles a ticket obtained from GetTicket (tickets built by
// hand may also be put; their slices join the freelist). The ticket and
// its slices must not be used after.
func PutTicket(t *Ticket) {
	t.BatchN = 0
	t.Coalesced = false
	t.Err = nil
	if t.done != nil {
		// Drain a completion signal an abandoning caller never consumed so
		// the next Price on this ticket blocks correctly.
		select {
		case <-t.done:
		default:
		}
	}
	ticketPool.Put(t)
}

// sizedFloats returns s resized to length n, reallocating (to a
// power-of-two capacity, for stable reuse) only when the capacity is too
// small. Contents are unspecified.
func sizedFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n, 1<<sizeClass(n))
}

// ticketList is a batch of tickets, queued or being flushed; pooling the
// pointer the slice travels behind makes recycling allocation-free.
type ticketList struct{ tickets []*Ticket }

var ticketListPool = sync.Pool{
	New: func() any { return &ticketList{tickets: make([]*Ticket, 0, 16)} },
}

func putTicketList(l *ticketList) {
	for i := range l.tickets {
		l.tickets[i] = nil
	}
	l.tickets = l.tickets[:0]
	ticketListPool.Put(l)
}
