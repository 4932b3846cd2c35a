package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finbench"
	"finbench/internal/serve/stream/ticker"
)

// manualHub builds an unstarted hub the test drives with Step.
func manualHub(t *testing.T, cfg Config) *Hub {
	t.Helper()
	return New(cfg, nil)
}

// tickFrom advances the hub's own source one tick.
func tickFrom(h *Hub, st *ticker.State) {
	h.Source().Next(st)
	st.TimeNS = int64(st.Seq) // deterministic stand-in for the wall clock
}

// readFrame decodes one SSE frame's event payload.
func readFrame(t *testing.T, frame []byte) (string, Event) {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(frame))
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("parsing frame %q: %v", frame, err)
	}
	var ev Event
	if err := json.Unmarshal(f.Data, &ev); err != nil {
		t.Fatalf("decoding %s payload: %v", f.Event, err)
	}
	return f.Event, ev
}

// Only the unset fields of Config.Market take defaults.
func TestMarketDefaultsOnlyUnsetFields(t *testing.T) {
	for _, tc := range []struct{ set, want finbench.Market }{
		{finbench.Market{}, finbench.Market{Rate: 0.02, Volatility: 0.3}},
		{finbench.Market{Rate: 0.05}, finbench.Market{Rate: 0.05, Volatility: 0.3}},
		{finbench.Market{Volatility: 0.2}, finbench.Market{Volatility: 0.2}},
	} {
		if got := (Config{Market: tc.set}).withDefaults().Market; got != tc.want {
			t.Errorf("Market %+v: hub at %+v, want %+v", tc.set, got, tc.want)
		}
	}
}

func TestAllDirtyFirstTick(t *testing.T) {
	h := manualHub(t, Config{Universe: 128, Underlyings: 8})
	var st ticker.State
	tickFrom(h, &st)
	h.Step(&st)
	if got := len(h.repriced); got != 128 {
		t.Fatalf("first tick repriced %d contracts, want the whole universe of 128", got)
	}
	for i := range h.cur {
		if !h.cur[i].priced {
			t.Fatalf("contract %d unpriced after the all-dirty first tick", i)
		}
	}
}

// TestDirtyThresholdBoundaries: a move exactly at the threshold dirties
// the contract; a move just under does not. Driven with hand-built
// states so the boundary values are exact.
func TestDirtyThresholdBoundaries(t *testing.T) {
	cfg := Config{Universe: 4, Underlyings: 1,
		SpotThreshold: 0.01, VolThreshold: 0.005, RateThreshold: 0.0005}
	base := ticker.State{Seq: 1, Spots: []float64{100}, Vol: 0.3, Rate: 0.02}

	cases := []struct {
		name  string
		next  ticker.State
		dirty bool
	}{
		{"unchanged", ticker.State{Spots: []float64{100}, Vol: 0.3, Rate: 0.02}, false},
		{"spot at threshold", ticker.State{Spots: []float64{101}, Vol: 0.3, Rate: 0.02}, true},
		{"spot below threshold", ticker.State{Spots: []float64{100.9}, Vol: 0.3, Rate: 0.02}, false},
		{"spot down at threshold", ticker.State{Spots: []float64{99}, Vol: 0.3, Rate: 0.02}, true},
		{"vol at threshold", ticker.State{Spots: []float64{100}, Vol: 0.305, Rate: 0.02}, true},
		{"vol below threshold", ticker.State{Spots: []float64{100}, Vol: 0.3049, Rate: 0.02}, false},
		{"rate at threshold", ticker.State{Spots: []float64{100}, Vol: 0.3, Rate: 0.0205}, true},
		{"rate below threshold", ticker.State{Spots: []float64{100}, Vol: 0.3, Rate: 0.02044}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := manualHub(t, cfg)
			h.Step(&base) // first pass prices everything, setting the baseline
			if len(h.repriced) != 4 {
				t.Fatalf("baseline pass repriced %d, want 4", len(h.repriced))
			}
			next := tc.next
			next.Seq = 2
			h.Step(&next)
			if dirty := len(h.repriced) > 0; dirty != tc.dirty {
				t.Errorf("repriced %d contracts, want dirty=%v", len(h.repriced), tc.dirty)
			}
		})
	}
}

// TestMovesAccumulateAcrossTicks: two sub-threshold moves in the same
// direction cross the threshold together — the baseline is the last
// repricing, not the last tick, so coalescing never loses a move.
func TestMovesAccumulateAcrossTicks(t *testing.T) {
	h := manualHub(t, Config{Universe: 2, Underlyings: 1, SpotThreshold: 0.01})
	h.Step(&ticker.State{Seq: 1, Spots: []float64{100}, Vol: 0.3, Rate: 0.02})
	h.Step(&ticker.State{Seq: 2, Spots: []float64{100.6}, Vol: 0.3, Rate: 0.02})
	if len(h.repriced) != 0 {
		t.Fatalf("0.6%% move repriced %d contracts, want 0", len(h.repriced))
	}
	h.Step(&ticker.State{Seq: 3, Spots: []float64{101.2}, Vol: 0.3, Rate: 0.02})
	if len(h.repriced) != 2 {
		t.Fatalf("accumulated 1.2%% move repriced %d contracts, want 2", len(h.repriced))
	}
}

func TestNonPositiveThresholdAlwaysDirty(t *testing.T) {
	h := manualHub(t, Config{Universe: 8, Underlyings: 2, SpotThreshold: -1})
	var st ticker.State
	for i := 0; i < 3; i++ {
		tickFrom(h, &st)
		h.Step(&st)
		if len(h.repriced) != 8 {
			t.Fatalf("pass %d repriced %d, want the whole universe (threshold <= 0)", i, len(h.repriced))
		}
	}
}

func TestMailboxSkipToLatest(t *testing.T) {
	var m mailbox
	m.notify = make(chan struct{}, 1)
	a := ticker.State{Seq: 1, Spots: []float64{100}}
	b := ticker.State{Seq: 2, Spots: []float64{101}}
	if m.put(&a) {
		t.Error("first put reported a drop")
	}
	if !m.put(&b) {
		t.Error("overwriting put did not report a drop")
	}
	var got ticker.State
	if !m.take(&got) {
		t.Fatal("take from a full mailbox failed")
	}
	if got.Seq != 2 {
		t.Errorf("take returned seq %d, want the latest (2)", got.Seq)
	}
	if m.take(&got) {
		t.Error("take from an emptied mailbox succeeded")
	}
}

func TestSubscribeValidation(t *testing.T) {
	h := manualHub(t, Config{Universe: 16, Underlyings: 4})
	if _, err := h.Subscribe([]int{16}); err != ErrBadContract {
		t.Errorf("out-of-universe id: err = %v, want ErrBadContract", err)
	}
	if _, err := h.Subscribe([]int{-1}); err != ErrBadContract {
		t.Errorf("negative id: err = %v, want ErrBadContract", err)
	}
	s1, err := h.Subscribe(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Subscribed() != 16 {
		t.Errorf("nil subscription covers %d contracts, want the whole universe", s1.Subscribed())
	}
	for i := 1; i < maxSubscribers; i++ {
		if _, err := h.Subscribe([]int{i % 16}); err != nil {
			t.Fatalf("subscriber %d of %d: %v", i+1, maxSubscribers, err)
		}
	}
	if _, err := h.Subscribe([]int{1}); err != ErrTooManySubs {
		t.Errorf("over the subscriber limit: err = %v, want ErrTooManySubs", err)
	}
	h.Shutdown()
	h.Unsubscribe(s1)
	if _, err := h.Subscribe([]int{0}); err != ErrDraining {
		t.Errorf("subscribe while draining: err = %v, want ErrDraining", err)
	}
	select {
	case <-s1.Gone():
	default:
		t.Error("Gone not closed by Shutdown")
	}
}

// TestResyncAfterOverflowBitMatch is the backpressure contract end to
// end, at the hub layer: overflow a subscriber's buffer, require
// the dropped delta to be replaced by a resync snapshot, and require
// every float of that snapshot to be bit-identical to a cold
// LevelAdvanced repricing plus scalar greeks at the entry's echoed
// inputs — a slow reader loses granularity, never correctness.
func TestResyncAfterOverflowBitMatch(t *testing.T) {
	h := manualHub(t, Config{Universe: 64, Underlyings: 8, SpotThreshold: -1})
	sub, err := h.Subscribe(nil)
	if err != nil {
		t.Fatal(err)
	}

	var st ticker.State
	for i := 0; i < subscriberBuffer; i++ {
		tickFrom(h, &st)
		h.Step(&st) // the initial snapshot, then greeks deltas, fill the buffer
	}
	if got := h.eventsDropped.Load(); got != 0 {
		t.Fatalf("%d drops before the buffer was full", got)
	}
	tickFrom(h, &st)
	h.Step(&st) // greeks delta cannot fit: dropped, resync flagged
	if got := h.eventsDropped.Load(); got == 0 {
		t.Fatal("no drop recorded despite a full subscriber buffer")
	}

	event, ev := readFrame(t, <-sub.C()) // drain the initial snapshot
	if event != EventSnapshot || ev.Resync {
		t.Fatalf("first event = %s resync=%v, want the initial snapshot", event, ev.Resync)
	}

	tickFrom(h, &st)
	h.Step(&st) // buffer has room again: the resync snapshot goes out
	for i := 1; i < subscriberBuffer; i++ {
		if event, ev = readFrame(t, <-sub.C()); event != EventGreeks || ev.Resync {
			t.Fatalf("buffered event %d = %s resync=%v, want a greeks delta", i, event, ev.Resync)
		}
	}
	event, ev = readFrame(t, <-sub.C())
	if event != EventSnapshot {
		t.Fatalf("post-overflow event = %s, want snapshot", event)
	}
	if !ev.Resync {
		t.Error("post-overflow snapshot not flagged resync")
	}
	if h.resyncs.Load() != 1 {
		t.Errorf("resyncs = %d, want 1", h.resyncs.Load())
	}
	if len(ev.Contracts) != 64 {
		t.Fatalf("resync snapshot carries %d contracts, want the full subscription of 64", len(ev.Contracts))
	}
	verifyEntriesCold(t, ev.Contracts)
}

// verifyEntriesCold recomputes every entry from its echoed inputs and
// requires bit-equality on all six outputs.
func verifyEntriesCold(t *testing.T, entries []Entry) {
	t.Helper()
	b := finbench.NewBatch(1)
	for _, e := range entries {
		b.Spots[0], b.Strikes[0], b.Expiries[0] = e.Spot, e.Strike, e.Expiry
		mkt := finbench.Market{Rate: e.Rate, Volatility: e.Vol}
		if err := finbench.PriceBatchCtx(context.Background(), b, mkt, finbench.LevelAdvanced); err != nil {
			t.Fatalf("contract %d: cold repricing: %v", e.ID, err)
		}
		opt := finbench.Option{Type: finbench.Call, Style: finbench.European,
			Spot: e.Spot, Strike: e.Strike, Expiry: e.Expiry}
		price, delta, theta, rho := b.Calls[0], 0.0, 0.0, 0.0
		g, err := finbench.ComputeGreeks(opt, mkt)
		if err != nil {
			t.Fatalf("contract %d: cold greeks: %v", e.ID, err)
		}
		if e.Type == "put" {
			price, delta, theta, rho = b.Puts[0], g.DeltaPut, g.ThetaPut, g.RhoPut
		} else {
			delta, theta, rho = g.DeltaCall, g.ThetaCall, g.RhoCall
		}
		for _, pair := range [][2]float64{
			{e.Price, price}, {e.Delta, delta}, {e.Gamma, g.Gamma},
			{e.Vega, g.Vega}, {e.Theta, theta}, {e.Rho, rho},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("contract %d: pushed %x != cold %x", e.ID,
					math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
}

// TestDegradedCapAdaptation: a blown budget shrinks the worst-movers
// cap; capped passes that finish fast re-grow it back to uncapped — the
// hysteresis that keeps a transient stall from permanently degrading
// the feed.
func TestDegradedCapAdaptation(t *testing.T) {
	var stall atomic.Bool
	reprice := func(ctx context.Context, b *finbench.Batch, m finbench.Market) error {
		if stall.Load() {
			time.Sleep(300 * time.Millisecond)
		}
		return finbench.PriceBatchCtx(ctx, b, m, finbench.LevelAdvanced)
	}
	// The budget is generous against real repricing speed (so only the
	// injected stall ever blows it) but far under the stall.
	h := New(Config{Universe: 4096, Underlyings: 16,
		SpotThreshold: -1, Budget: 200 * time.Millisecond}, reprice)

	var st ticker.State
	stall.Store(true)
	tickFrom(h, &st)
	h.Step(&st)
	if h.degradedPasses.Load() != 1 {
		t.Fatalf("stalled pass not degraded (degradedPasses=%d)", h.degradedPasses.Load())
	}
	capAfterBlow := h.repriceCap.Load()
	if capAfterBlow <= 0 || capAfterBlow >= 4096 {
		t.Fatalf("cap after blown budget = %d, want a real shrink", capAfterBlow)
	}

	stall.Store(false)
	for i := 0; i < 10 && h.repriceCap.Load() != 0; i++ {
		prev := h.repriceCap.Load()
		tickFrom(h, &st)
		h.Step(&st)
		if next := h.repriceCap.Load(); next != 0 && next <= prev {
			t.Fatalf("fast capped pass did not grow the cap (%d -> %d)", prev, next)
		}
	}
	if h.repriceCap.Load() != 0 {
		t.Fatalf("cap never recovered to uncapped (still %d)", h.repriceCap.Load())
	}
	// The skipped contracts stayed dirty the whole time; the first
	// uncapped pass catches every one of them up.
	tickFrom(h, &st)
	h.Step(&st)
	for i := range h.cur {
		if !h.cur[i].priced {
			t.Fatalf("contract %d still unpriced after an uncapped pass", i)
		}
	}
}

// TestDegradedEventFlag: events emitted by a capped pass carry
// degraded=true; clean passes do not.
func TestDegradedEventFlag(t *testing.T) {
	h := manualHub(t, Config{Universe: 256, Underlyings: 4, SpotThreshold: -1})
	sub, err := h.Subscribe(nil)
	if err != nil {
		t.Fatal(err)
	}
	var st ticker.State
	tickFrom(h, &st)
	h.Step(&st)
	if event, ev := readFrame(t, <-sub.C()); event != EventSnapshot || ev.Degraded {
		t.Fatalf("first event = %s degraded=%v, want a clean snapshot", event, ev.Degraded)
	}

	h.repriceCap.Store(64) // force a capped (degraded) pass
	tickFrom(h, &st)
	h.Step(&st)
	event, ev := readFrame(t, <-sub.C())
	if event != EventGreeks {
		t.Fatalf("second event = %s, want greeks", event)
	}
	if !ev.Degraded {
		t.Error("capped pass's event not flagged degraded")
	}
	if len(ev.Contracts) != 64 {
		t.Errorf("capped pass pushed %d contracts, want the cap of 64", len(ev.Contracts))
	}
}

// TestFanOutRace exercises the started hub's full concurrency surface —
// ticker, repricing loop, subscribe/unsubscribe churn, draining readers
// — under the race detector.
func TestFanOutRace(t *testing.T) {
	h := New(Config{Universe: 256, Underlyings: 16, SpotThreshold: -1,
		Interval: time.Millisecond}, nil)
	h.Start()
	defer h.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := h.Subscribe([]int{lo, lo + 1, lo + 2})
				if err != nil {
					return // draining
				}
				deadline := time.After(5 * time.Millisecond)
			drain:
				for {
					select {
					case <-sub.C():
					case <-sub.Gone():
						break drain
					case <-deadline:
						break drain
					}
				}
				h.Unsubscribe(sub)
			}
		}(i * 16)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	snap := h.Snapshot()
	if snap.Passes == 0 || snap.EventsSent == 0 {
		t.Errorf("stress run did no work: %+v", snap)
	}
}

// TestOverloadBoundedStaleness: a hub ticked 10x faster than its
// repricing can drain must drop ticks (skip-to-latest) rather than
// queue them, and still price against the latest state.
func TestOverloadBoundedStaleness(t *testing.T) {
	reprice := func(ctx context.Context, b *finbench.Batch, m finbench.Market) error {
		time.Sleep(2 * time.Millisecond) // 10x the tick interval
		return finbench.PriceBatchCtx(ctx, b, m, finbench.LevelAdvanced)
	}
	h := New(Config{Universe: 64, Underlyings: 8, SpotThreshold: -1,
		Interval: 200 * time.Microsecond, Budget: time.Second}, reprice)
	h.Start()
	time.Sleep(150 * time.Millisecond)
	h.Close()
	snap := h.Snapshot()
	if snap.DroppedTicks == 0 {
		t.Errorf("overloaded hub dropped no ticks: %+v", snap)
	}
	if snap.Passes >= snap.Ticks {
		t.Errorf("passes (%d) not coalesced below ticks (%d)", snap.Passes, snap.Ticks)
	}
}

func TestShutdownIdempotentAndStopsTicking(t *testing.T) {
	h := New(Config{Universe: 16, Underlyings: 4, Interval: time.Millisecond}, nil)
	h.Start()
	time.Sleep(10 * time.Millisecond)
	h.Close()
	h.Shutdown() // second shutdown must be a no-op
	ticks := h.ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if got := h.ticks.Load(); got != ticks {
		t.Errorf("hub ticked after Close (%d -> %d)", ticks, got)
	}
}
