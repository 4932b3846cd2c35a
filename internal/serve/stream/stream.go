// Package stream is the serving tier's streaming Greeks feed: a
// seed-deterministic market source (ticker) drives tick-driven
// incremental repricing of a contract universe, and subscribers receive
// Greeks deltas over bounded per-subscriber buffers. Its SSE frame codec
// (event.go, client.go) and frame writer (WriteFrame, under WriteTimeout)
// serve both the lone server and the router's relay.
//
// The robustness design, in one place:
//
//   - Skip-to-latest: the ticker deposits into a one-slot mailbox, never
//     a queue. When the tick rate outruns a repricing pass, intermediate
//     ticks are overwritten (counted as dropped) and the next pass prices
//     against the latest market — staleness stays bounded at roughly one
//     pass instead of growing with queue depth.
//   - Dirty-set tracking: a contract is repriced only when its inputs
//     moved beyond the configured thresholds since its last repricing
//     (relative for spot, absolute for vol/rate; moves exactly at the
//     threshold count). Skipped ticks' moves accumulate against the same
//     baseline, so coalescing ticks never loses a move.
//   - Per-tick deadline budgets: each pass runs under a pooled deadline
//     context sized to the tick budget. The dirty set is sorted worst
//     movers first, so when the budget blows mid-pass the most stale
//     prices were already refreshed; the rest stay dirty for the next
//     pass, and the pass's events carry degraded=true. An adaptive cap
//     (shrink on blow, re-grow on fast completion — the admission
//     hysteresis pattern) keeps later passes inside the budget instead
//     of blowing it every tick.
//   - Slow-client backpressure: fan-out sends are non-blocking into each
//     subscriber's bounded buffer. Overflow drops the delta and flags the
//     subscriber for a full-state resync (event: snapshot), so a slow
//     reader loses granularity, never correctness — and never wedges the
//     repricing loop.
//
// Repricing composes only bit-reproducible pieces: prices come from one
// coalesced SOA mega-batch through finbench.PriceBatchCtx at
// LevelAdvanced (composition-independent — the standing invariant), and
// greeks from the scalar finbench.ComputeGreeks, exactly the /greeks
// endpoint's values. Every pushed float is therefore bit-identical to a
// cold one-contract recomputation at the event's echoed inputs.
package stream

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"finbench"
	"finbench/internal/serve/deadline"
	"finbench/internal/serve/stream/ticker"
)

// RepriceFunc prices one closed-form SOA batch against a flat market.
// The hub calls it from its repricing-loop goroutine, concurrently with
// whatever goroutine constructed the hub — the closure must not capture
// a shared RNG stream or other single-owner state. nil selects the
// default, finbench.PriceBatchCtx at LevelAdvanced (the only engine
// whose results are composition-independent, hence the only one a
// coalesced mega-batch may use).
type RepriceFunc func(ctx context.Context, b *finbench.Batch, m finbench.Market) error

// Config tunes a Hub; zero values select the defaults.
type Config struct {
	// Universe is the contract count (default 1024); Underlyings the
	// simulated spot paths they map onto round-robin (default 64). Seed
	// makes ticker walk and universe deterministic (default 1).
	Universe    int
	Underlyings int
	Seed        uint64

	// Market anchors the vol/rate walk (default rate 0.02, vol 0.3).
	Market finbench.Market

	// Interval is the tick period (default 20ms). Budget bounds one
	// repricing pass (default: the interval — a pass that cannot keep up
	// with the tick rate degrades instead of falling behind).
	Interval time.Duration
	Budget   time.Duration

	// SpotThreshold is the relative spot move that dirties a contract
	// (default 0.002); VolThreshold and RateThreshold are absolute moves
	// (defaults 0.005 and 0.0005). A move exactly at the threshold counts.
	// A non-positive threshold dirties every contract every tick (used by
	// the full-reprice benchmark rows).
	SpotThreshold float64
	VolThreshold  float64
	RateThreshold float64
}

// subscriberBuffer is each subscriber's event-buffer capacity; overflow
// forces a snapshot resync. maxSubscribers bounds concurrent
// subscriptions. minReprice floors the adaptive worst-movers cap.
const (
	subscriberBuffer = 8
	maxSubscribers   = 1024
	minReprice       = 64
)

func (c Config) withDefaults() Config {
	if c.Universe <= 0 {
		c.Universe = 1024
	}
	if c.Underlyings <= 0 {
		c.Underlyings = 64
	}
	if c.Underlyings > c.Universe {
		c.Underlyings = c.Universe
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	// Zero marks a Market field unset, but a zero rate is also a rate:
	// only an all-zero Market takes the default rate.
	// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
	if c.Market.Volatility == 0 {
		// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		if c.Market.Rate == 0 {
			c.Market.Rate = 0.02
		}
		c.Market.Volatility = 0.3
	}
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = c.Interval
	}
	// finlint:ignore floateq zero is the untouched-field sentinel; negative means always-dirty
	if c.SpotThreshold == 0 {
		c.SpotThreshold = 0.002
	}
	// finlint:ignore floateq zero is the untouched-field sentinel; negative means always-dirty
	if c.VolThreshold == 0 {
		c.VolThreshold = 0.005
	}
	// finlint:ignore floateq zero is the untouched-field sentinel; negative means always-dirty
	if c.RateThreshold == 0 {
		c.RateThreshold = 0.0005
	}
	return c
}

// Subscription errors.
var (
	ErrDraining       = errors.New("stream: hub is draining")
	ErrTooManySubs    = errors.New("stream: subscriber limit reached")
	ErrBadContract    = errors.New("stream: contract id outside universe")
	errAlreadyStarted = errors.New("stream: hub already started")
)

// contractState is a contract's last-repriced inputs and outputs. The
// inputs double as the dirty baseline; priced=false (never repriced)
// is unconditionally dirty.
type contractState struct {
	spot, vol, rate                       float64
	price, delta, gamma, vega, theta, rho float64
	priced                                bool
}

// mover is one dirty contract and its scaled move magnitude.
type mover struct {
	idx int32
	mag float64
}

// moverSort orders worst movers first (magnitude descending, index
// ascending for determinism). A persistent pointer receiver keeps
// sort.Sort allocation-free on the per-tick path.
type moverSort struct{ s []mover }

func (m *moverSort) Len() int      { return len(m.s) }
func (m *moverSort) Swap(i, j int) { m.s[i], m.s[j] = m.s[j], m.s[i] }
func (m *moverSort) Less(i, j int) bool {
	if m.s[i].mag != m.s[j].mag { // finlint:ignore floateq ordering only; equal magnitudes fall through to the index tie-break
		return m.s[i].mag > m.s[j].mag
	}
	return m.s[i].idx < m.s[j].idx
}

// mailbox is the one-slot latest-tick handoff between the ticker
// goroutine and the repricing loop. put overwrites (skip-to-latest);
// take empties. Never a queue: depth is the staleness bound.
type mailbox struct {
	mu     sync.Mutex
	st     ticker.State
	full   bool
	notify chan struct{}
}

func (m *mailbox) put(src *ticker.State) (dropped bool) {
	m.mu.Lock()
	dropped = m.full
	m.st.CopyFrom(src)
	m.full = true
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
	return dropped
}

func (m *mailbox) take(dst *ticker.State) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.full {
		return false
	}
	dst.CopyFrom(&m.st)
	m.full = false
	return true
}

// Sub is one subscriber. The serving layer reads frames from C and
// watches Gone for the hub-initiated close (drain). needResync and
// sentInitial are owned by the fan-out loop under the hub mutex.
type Sub struct {
	ids    []int32
	member []bool
	ch     chan []byte
	gone   chan struct{}

	needResync  bool
	sentInitial bool
}

// C delivers encoded SSE frames. The channel is never closed; select on
// Gone for termination.
func (s *Sub) C() <-chan []byte { return s.ch }

// Gone closes when the hub shuts down; the reader should send goodbye
// and disconnect.
func (s *Sub) Gone() <-chan struct{} { return s.gone }

// Subscribed returns the subscription's contract count.
func (s *Sub) Subscribed() int { return len(s.ids) }

// Hub owns the universe, the repricing loop and the subscriber fan-out.
// Build with New; Start launches the ticker and loop goroutines (a hub
// that is never started is a manual hub, driven by Step — tests and
// benchmarks). Shutdown begins the drain; Close waits it out.
type Hub struct {
	cfg       Config
	contracts []Contract
	reprice   RepriceFunc

	// Loop-owned pass state (the repricing goroutine, or the Step caller
	// of a manual hub — never both).
	src       *ticker.Source
	tickState ticker.State
	cur       []contractState
	movers    []mover
	sorter    *moverSort
	batch     *finbench.Batch
	chunk     finbench.Batch
	repriced  []int32
	entryBuf  []Entry

	mail mailbox

	mu       sync.Mutex
	subs     map[*Sub]struct{}
	draining bool

	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stopped sync.Once

	ticks          atomic.Uint64
	droppedTicks   atomic.Uint64
	passes         atomic.Uint64
	degradedPasses atomic.Uint64
	repricedTotal  atomic.Uint64
	eventsSent     atomic.Uint64
	eventsDropped  atomic.Uint64
	resyncs        atomic.Uint64
	repriceCap     atomic.Int64 // 0 = uncapped
}

// New builds a hub. The reprice closure (nil = the LevelAdvanced batch
// engine) runs on the repricing-loop goroutine, concurrently with the
// caller.
func New(cfg Config, reprice RepriceFunc) *Hub {
	cfg = cfg.withDefaults()
	if reprice == nil {
		reprice = func(ctx context.Context, b *finbench.Batch, m finbench.Market) error {
			return finbench.PriceBatchCtx(ctx, b, m, finbench.LevelAdvanced)
		}
	}
	h := &Hub{
		cfg:       cfg,
		contracts: UniverseContracts(cfg.Seed, cfg.Universe, cfg.Underlyings),
		reprice:   reprice,
		src:       ticker.NewSource(cfg.Seed, cfg.Underlyings, cfg.Market.Volatility, cfg.Market.Rate),
		cur:       make([]contractState, cfg.Universe),
		movers:    make([]mover, 0, cfg.Universe),
		sorter:    &moverSort{},
		batch:     finbench.NewBatch(cfg.Universe),
		repriced:  make([]int32, 0, cfg.Universe),
		subs:      make(map[*Sub]struct{}),
		stop:      make(chan struct{}),
	}
	h.mail.notify = make(chan struct{}, 1)
	return h
}

// Universe returns the contract-universe size.
func (h *Hub) Universe() int { return len(h.contracts) }

// HelloFor builds the hello payload for a subscription.
func (h *Hub) HelloFor(sub *Sub) Hello {
	return Hello{
		Universe:    h.cfg.Universe,
		Underlyings: h.cfg.Underlyings,
		Seed:        h.cfg.Seed,
		IntervalMS:  h.cfg.Interval.Milliseconds(),
		SpotThresh:  h.cfg.SpotThreshold,
		Subscribed:  sub.Subscribed(),
	}
}

// Start launches the ticker and repricing-loop goroutines. A started hub
// must not be driven with Step.
func (h *Hub) Start() {
	if h.started.Swap(true) {
		panic(errAlreadyStarted)
	}
	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		ticker.Run(h.src, h.cfg.Interval, h.stop, h.deposit)
	}()
	go h.loop()
}

// deposit is the ticker's per-tick sink: skip-to-latest, never a queue.
func (h *Hub) deposit(st *ticker.State) {
	h.ticks.Add(1)
	if h.mail.put(st) {
		h.droppedTicks.Add(1)
	}
}

func (h *Hub) loop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.stop:
			return
		case <-h.mail.notify:
			if h.mail.take(&h.tickState) {
				h.step(&h.tickState)
			}
		}
	}
}

// Shutdown begins the drain: ticking stops, new subscriptions are
// refused, and every subscriber's Gone channel closes so its reader can
// send goodbye and disconnect. Idempotent; does not wait.
func (h *Hub) Shutdown() {
	h.stopped.Do(func() { close(h.stop) })
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return
	}
	h.draining = true
	for sub := range h.subs {
		close(sub.gone)
	}
}

// Close shuts the hub down and waits for its goroutines.
func (h *Hub) Close() {
	h.Shutdown()
	h.wg.Wait()
}

// Subscribe registers a subscriber over the given contract ids (nil =
// the whole universe). The ids must be in-universe; ParseSubscription
// output qualifies. The first event pushed is always a full snapshot.
func (h *Hub) Subscribe(ids []int) (*Sub, error) {
	n := len(h.contracts)
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	sub := &Sub{
		ids:        make([]int32, len(ids)),
		member:     make([]bool, n),
		ch:         make(chan []byte, subscriberBuffer),
		gone:       make(chan struct{}),
		needResync: true,
	}
	for i, id := range ids {
		if id < 0 || id >= n {
			return nil, ErrBadContract
		}
		sub.ids[i] = int32(id)
		sub.member[id] = true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return nil, ErrDraining
	}
	if len(h.subs) >= maxSubscribers {
		return nil, ErrTooManySubs
	}
	h.subs[sub] = struct{}{}
	return sub, nil
}

// Unsubscribe removes a subscriber; idempotent. The fan-out loop never
// closes subscriber channels, so a disconnected reader simply stops
// draining and the Sub is garbage once removed here.
func (h *Hub) Unsubscribe(sub *Sub) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// Step runs one repricing pass against st synchronously: the manual-hub
// driver for tests and benchmarks. Never call it on a started hub — the
// repricing loop owns the pass state there.
func (h *Hub) Step(st *ticker.State) {
	h.step(st)
}

// Source exposes the hub's deterministic market source for manual
// driving (tests and benchmarks advance it and feed Step).
func (h *Hub) Source() *ticker.Source { return h.src }

// passChunk is the repricing granularity: deadline checks and commits
// happen between chunks, so a blown budget costs at most one chunk of
// overrun and everything committed so far stays delivered.
const passChunk = 1024

// scaled maps an input move onto threshold units; >= 1 is dirty. A
// non-positive threshold makes any contract unconditionally dirty.
func scaled(delta, threshold float64) float64 {
	if threshold <= 0 {
		return math.Inf(1)
	}
	return math.Abs(delta) / threshold
}

// step is one repricing pass: dirty scan, worst-movers-first budgeted
// mega-batch repricing, commit, fan-out.
func (h *Hub) step(st *ticker.State) {
	start := time.Now()
	h.passes.Add(1)

	// Dirty scan against each contract's last-repriced baseline.
	mv := h.movers[:0]
	for i := range h.contracts {
		c := &h.contracts[i]
		cs := &h.cur[i]
		var mag float64
		if !cs.priced {
			mag = math.Inf(1)
		} else {
			mag = scaled(st.Spots[c.Underlying]/cs.spot-1, h.cfg.SpotThreshold)
			if m := scaled(st.Vol-cs.vol, h.cfg.VolThreshold); m > mag {
				mag = m
			}
			if m := scaled(st.Rate-cs.rate, h.cfg.RateThreshold); m > mag {
				mag = m
			}
		}
		if mag >= 1 {
			mv = append(mv, mover{idx: int32(i), mag: mag})
		}
	}
	h.movers = mv[:0] // keep the (possibly regrown) backing array

	// Worst movers first; cap to the adaptive limit when one applies.
	h.sorter.s = mv
	sort.Sort(h.sorter)
	capN := int(h.repriceCap.Load())
	planned := len(mv)
	capApplied := capN > 0 && planned > capN
	if capApplied {
		planned = capN
	}

	// Gather the planned set into the SOA mega-batch.
	mkt := finbench.Market{Rate: st.Rate, Volatility: st.Vol}
	for k := 0; k < planned; k++ {
		c := &h.contracts[mv[k].idx]
		h.batch.Spots[k] = st.Spots[c.Underlying]
		h.batch.Strikes[k] = c.Strike
		h.batch.Expiries[k] = c.Expiry
	}

	// Reprice in chunks under the pass budget, committing as we go.
	h.repriced = h.repriced[:0]
	dctx := deadline.Acquire(context.Background(), start.Add(h.cfg.Budget))
	completed := 0
	for lo := 0; lo < planned; lo += passChunk {
		if lo > 0 && dctx.Expired() {
			break
		}
		hi := lo + passChunk
		if hi > planned {
			hi = planned
		}
		h.chunk.Spots = h.batch.Spots[lo:hi]
		h.chunk.Strikes = h.batch.Strikes[lo:hi]
		h.chunk.Expiries = h.batch.Expiries[lo:hi]
		h.chunk.Calls = h.batch.Calls[lo:hi]
		h.chunk.Puts = h.batch.Puts[lo:hi]
		if err := h.reprice(dctx, &h.chunk, mkt); err != nil {
			break
		}
		h.commit(mv[lo:hi], h.batch.Calls[lo:hi], h.batch.Puts[lo:hi], h.batch.Spots[lo:hi], mkt)
		completed = hi
	}
	dctx.Release()
	h.repricedTotal.Add(uint64(len(h.repriced)))

	// Adapt the cap: shrink on a blown budget, re-grow (toward uncapped)
	// when a capped pass completes in under half the budget — a
	// high/low-watermark hysteresis, so one stalled pass does not flap
	// the cap.
	budgetBlown := completed < planned
	if budgetBlown {
		newCap := completed - completed/4
		if newCap < minReprice {
			newCap = minReprice
		}
		h.repriceCap.Store(int64(newCap))
	} else if capN > 0 && time.Since(start) < h.cfg.Budget/2 {
		newCap := capN * 2
		if newCap >= len(h.contracts) {
			newCap = 0
		}
		h.repriceCap.Store(int64(newCap))
	}
	degraded := budgetBlown || capApplied
	if degraded {
		h.degradedPasses.Add(1)
	}

	h.fanOut(st.Seq, st.TimeNS, degraded)
}

// commit records a repriced chunk: prices from the mega-batch, greeks
// from the scalar kernel (the /greeks endpoint's exact values), inputs
// as the new dirty baseline.
func (h *Hub) commit(mv []mover, calls, puts, spots []float64, mkt finbench.Market) {
	for k := range mv {
		idx := mv[k].idx
		c := &h.contracts[idx]
		opt := finbench.Option{Type: finbench.Call, Style: finbench.European,
			Spot: spots[k], Strike: c.Strike, Expiry: c.Expiry}
		if c.Put {
			opt.Type = finbench.Put
		}
		g, err := finbench.ComputeGreeks(opt, mkt)
		if err != nil {
			// Unreachable with a valid universe (all inputs positive);
			// leave the contract dirty rather than publish half a state.
			continue
		}
		cs := &h.cur[idx]
		cs.spot = spots[k]
		cs.vol = mkt.Volatility
		cs.rate = mkt.Rate
		cs.gamma = g.Gamma
		cs.vega = g.Vega
		if c.Put {
			cs.price = puts[k]
			cs.delta = g.DeltaPut
			cs.theta = g.ThetaPut
			cs.rho = g.RhoPut
		} else {
			cs.price = calls[k]
			cs.delta = g.DeltaCall
			cs.theta = g.ThetaCall
			cs.rho = g.RhoCall
		}
		cs.priced = true
		h.repriced = append(h.repriced, idx)
	}
}

// entry builds a contract's wire entry from its committed state.
func (h *Hub) entry(idx int32) Entry {
	c := &h.contracts[idx]
	cs := &h.cur[idx]
	e := Entry{
		ID: int(idx), Type: "call",
		Strike: c.Strike, Expiry: c.Expiry,
		Spot: cs.spot, Vol: cs.vol, Rate: cs.rate,
		Price: cs.price, Delta: cs.delta, Gamma: cs.gamma,
		Vega: cs.vega, Theta: cs.theta, Rho: cs.rho,
	}
	if c.Put {
		e.Type = "put"
	}
	return e
}

// fanOut pushes this pass's events to every subscriber: a full snapshot
// to anyone flagged for resync (new subscriber, or buffer overflow), a
// greeks delta of the freshly repriced intersection to everyone else.
// Sends never block — a full buffer drops the delta and flags a resync.
func (h *Hub) fanOut(seq uint64, tickNS int64, degraded bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		if sub.needResync {
			// finlint:ignore detmap each subscriber's snapshot is built from its own sorted ids; map order never reaches the bytes
			h.sendSnapshot(sub, seq, tickNS, degraded)
			continue
		}
		h.entryBuf = h.entryBuf[:0]
		for _, idx := range h.repriced {
			if sub.member[idx] {
				h.entryBuf = append(h.entryBuf, h.entry(idx))
			}
		}
		if len(h.entryBuf) == 0 {
			continue
		}
		ev := Event{Seq: seq, TickNS: tickNS, Degraded: degraded, Contracts: h.entryBuf}
		// finlint:ignore detmap the delta is rebuilt per subscriber from the deterministic repriced order; map order never reaches the bytes
		frame := MarshalFrame(EventGreeks, &ev)
		select {
		case sub.ch <- frame:
			h.eventsSent.Add(1)
		default:
			// Slow client: drop the delta, resync with full state once
			// the buffer drains. The loop never waits.
			sub.needResync = true
			h.eventsDropped.Add(1)
		}
	}
}

// sendSnapshot tries to push a full-state snapshot; on overflow the
// resync flag stays set and the next pass retries.
func (h *Hub) sendSnapshot(sub *Sub, seq uint64, tickNS int64, degraded bool) {
	h.entryBuf = h.entryBuf[:0]
	for _, idx := range sub.ids {
		if h.cur[idx].priced {
			h.entryBuf = append(h.entryBuf, h.entry(idx))
		}
	}
	if len(h.entryBuf) == 0 {
		return // nothing priced yet; the first pass is moments away
	}
	ev := Event{Seq: seq, TickNS: tickNS, Degraded: degraded,
		Resync: sub.sentInitial, Contracts: h.entryBuf}
	frame := MarshalFrame(EventSnapshot, &ev)
	select {
	case sub.ch <- frame:
		if sub.sentInitial {
			h.resyncs.Add(1)
		}
		sub.needResync = false
		sub.sentInitial = true
		h.eventsSent.Add(1)
	default:
		h.eventsDropped.Add(1)
	}
}

// Stats is the hub's /statsz block (a fixed struct so snapshot encoding
// stays deterministic). SlowDisconnects is filled by the serving layer,
// which owns the write deadlines.
type Stats struct {
	Universe        int    `json:"universe"`
	Underlyings     int    `json:"underlyings"`
	IntervalMS      int64  `json:"interval_ms"`
	Subscribers     int    `json:"subscribers"`
	Ticks           uint64 `json:"ticks"`
	DroppedTicks    uint64 `json:"dropped_ticks"`
	Passes          uint64 `json:"passes"`
	DegradedPasses  uint64 `json:"degraded_passes"`
	Repriced        uint64 `json:"repriced_contracts"`
	EventsSent      uint64 `json:"events_sent"`
	EventsDropped   uint64 `json:"events_dropped"`
	Resyncs         uint64 `json:"resyncs"`
	RepriceCap      int64  `json:"reprice_cap"`
	SlowDisconnects uint64 `json:"slow_disconnects"`
}

// Snapshot assembles the current counters.
func (h *Hub) Snapshot() Stats {
	h.mu.Lock()
	subs := len(h.subs)
	h.mu.Unlock()
	return Stats{
		Universe:       len(h.contracts),
		Underlyings:    h.cfg.Underlyings,
		IntervalMS:     h.cfg.Interval.Milliseconds(),
		Subscribers:    subs,
		Ticks:          h.ticks.Load(),
		DroppedTicks:   h.droppedTicks.Load(),
		Passes:         h.passes.Load(),
		DegradedPasses: h.degradedPasses.Load(),
		Repriced:       h.repricedTotal.Load(),
		EventsSent:     h.eventsSent.Load(),
		EventsDropped:  h.eventsDropped.Load(),
		Resyncs:        h.resyncs.Load(),
		RepriceCap:     h.repriceCap.Load(),
	}
}
