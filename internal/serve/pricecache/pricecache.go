// Package pricecache is the content-addressed response cache of the
// serving tier. Millions of users price the same contracts; the repo's
// bit-reproducibility invariant (every 200 reproducible from the echoed
// effective method/config) makes a cache hit for a deterministic engine
// *provably* indistinguishable from recomputation, so the cheapest
// kernel invocation — the one never run — is also a correct one.
//
// The cache is three mechanisms behind one call:
//
//   - a content-addressed store keyed by Digest (LRU eviction under a
//     byte budget; entries never expire), holding the exact response bytes the
//     cold computation produced, so a hit is byte-identical to the cold
//     200 by construction;
//   - singleflight collapse: while a leader computes a key, identical
//     concurrent requests wait on the in-flight computation instead of
//     fanning N identical kernel invocations into the admission budget;
//   - waiter self-determination: a waiter always honors its *own*
//     deadline while the leader computes, and when a leader fails
//     (cancelled, shed, errored) waiters re-dispatch — one becomes the
//     new leader under its own context — rather than inheriting the
//     leader's failure or hanging on a flight that never lands.
//
// Only composition-independent, deterministic engines may be cached (the
// same rule as request coalescing); the caller owns that judgment and
// signals it per computation via the compute callback's store flag, so
// error answers and other non-replayable responses never enter the
// store.
package pricecache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the response header reporting the cache outcome of a request
// ("hit", "miss", "collapsed", or "bypass" for requests the router's
// cache declined to consider). The benchmark client builds its observed
// hit-rate metrics from it.
const Header = "X-Finserve-Cache"

// Outcome classifies how a Do call was served.
type Outcome int

const (
	// Miss: this caller was the leader and computed the value.
	Miss Outcome = iota
	// Hit: served from the stored entry without any computation.
	Hit
	// Collapsed: served from a concurrent leader's in-flight
	// computation; this caller ran no kernel work of its own.
	Collapsed
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Collapsed:
		return "collapsed"
	default:
		return "miss"
	}
}

// entryOverhead approximates the per-entry bookkeeping bytes (key, list
// element, map slot) charged against the byte budget on top of the body.
const entryOverhead = 128

// Cache is a content-addressed LRU response cache with singleflight
// collapse. All methods are safe for concurrent use.
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[Key]*flight

	hits      atomic.Uint64
	misses    atomic.Uint64
	collapsed atomic.Uint64
	inserts   atomic.Uint64
	evictions atomic.Uint64
	rejected  atomic.Uint64
}

type entry struct {
	key  Key
	body []byte
}

// flight is one in-progress leader computation. Fields other than done
// are written by the leader before close(done) and read by waiters only
// after <-done (the close is the happens-before edge).
type flight struct {
	done   chan struct{}
	body   []byte
	shared bool // result is deterministic and may fan out to waiters
	err    error
}

// New builds a cache holding at most maxBytes of response bodies (plus a
// fixed per-entry overhead); a non-positive maxBytes selects 64 MiB, and
// callers gate "cache off" themselves with a nil *Cache. Entries never
// expire: every caller serves a market fixed when its process starts.
// ttl is ignored: it stays only until the benchmark/ package, which
// passes it, can be corrected (ROADMAP item 1a-i).
func New(maxBytes int64, ttl time.Duration) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*flight),
	}
}

// Do returns the response bytes for key: from the store (Hit), from a
// concurrent leader's computation (Collapsed), or by computing them
// (Miss). compute receives the caller's ctx and returns the response
// body, whether the result is cacheable/shareable (deterministic — the
// composition-independence rule), and an error.
//
// Contract:
//   - compute runs at most once per Do call, and only when this caller
//     is the leader;
//   - a waiter blocks only until the flight lands or its own ctx
//     expires, whichever is first — never on the leader's deadline;
//   - when a leader fails or produces an uncacheable result, waiters
//     re-dispatch from the top (one becomes the new leader under its
//     own ctx) instead of inheriting the outcome: an uncacheable
//     response belongs to the request that provoked it;
//   - a store=false result is returned to the leader but never stored
//     and never fanned out.
func (c *Cache) Do(ctx context.Context, key Key, compute func(ctx context.Context) (body []byte, store bool, err error)) ([]byte, Outcome, error) {
	for {
		c.mu.Lock()
		if body, ok := c.lookupLocked(key); ok {
			c.mu.Unlock()
			c.hits.Add(1)
			return body, Hit, nil
		}
		f, inFlight := c.flights[key]
		if !inFlight {
			// finlint:ignore hotalloc one flight header per dispatch attempt, not per option; a re-dispatch after a failed leader needs a fresh done channel
			f = &flight{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			c.misses.Add(1)
			return c.lead(ctx, key, f, compute)
		}
		c.mu.Unlock()

		select {
		case <-f.done:
			if f.err == nil && f.shared {
				c.collapsed.Add(1)
				return f.body, Collapsed, nil
			}
			// Leader failed or its result was uncacheable: re-dispatch
			// under our own ctx (loop; we may become the new leader).
		case <-ctx.Done():
			return nil, Miss, ctx.Err()
		}
	}
}

// lead runs the computation as the leader and lands the flight: store
// first (so waiters released by close(done) that loop around find the
// entry), then publish to waiters.
func (c *Cache) lead(ctx context.Context, key Key, f *flight, compute func(ctx context.Context) ([]byte, bool, error)) ([]byte, Outcome, error) {
	body, store, err := compute(ctx)
	f.body, f.err = body, err
	f.shared = store && err == nil
	if f.shared {
		c.insert(key, body)
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return body, Miss, err
}

// lookupLocked returns a stored entry's body and bumps its recency.
func (c *Cache) lookupLocked(key Key) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).body, true
}

// insert stores body under key, evicting least-recently-used entries
// until the byte budget holds. A body larger than the whole budget is
// rejected (callers still got their value from the flight).
func (c *Cache) insert(key Key, body []byte) {
	size := int64(len(body)) + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		c.rejected.Add(1)
		return
	}
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	for c.bytes+size > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Add(1)
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, body: body})
	c.bytes += size
	c.inserts.Add(1)
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.body)) + entryOverhead
}

// Stats is a point-in-time snapshot of the cache counters; it marshals
// with fixed field order (a struct, not a map) so /statsz output stays
// deterministic.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"`
	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
	Rejected  uint64 `json:"rejected"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	entries := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Inserts:   c.inserts.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  c.maxBytes,
	}
}
