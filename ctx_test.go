package finbench

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func testOptions() []struct {
	name   string
	o      Option
	method Method
} {
	return []struct {
		name   string
		o      Option
		method Method
	}{
		{"closed-form-call", Option{Type: Call, Spot: 100, Strike: 105, Expiry: 0.5}, ClosedForm},
		{"binomial-euro-put", Option{Type: Put, Spot: 100, Strike: 95, Expiry: 1}, BinomialTree},
		{"binomial-amer-put", Option{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1}, BinomialTree},
		{"cn-euro-put", Option{Type: Put, Spot: 100, Strike: 100, Expiry: 0.75}, FiniteDifference},
		{"cn-amer-put", Option{Type: Put, Style: American, Spot: 90, Strike: 100, Expiry: 1}, FiniteDifference},
		{"trinomial-call", Option{Type: Call, Spot: 100, Strike: 100, Expiry: 0.5}, TrinomialTree},
		{"trinomial-amer-put", Option{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1}, TrinomialTree},
		{"mc-call", Option{Type: Call, Spot: 100, Strike: 100, Expiry: 0.25}, MonteCarlo},
	}
}

// TestPriceCtxBackgroundBitMatchesPrice is the core serving guarantee: a
// live, cancellable context (whose checkpoints run) must produce results
// bit-identical to context.Background (whose checkpoints are skipped) for
// every method (the ctx plumbing may not perturb the numerics).
func TestPriceCtxBackgroundBitMatchesPrice(t *testing.T) {
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	cfg := &Config{MCPaths: 16384}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range testOptions() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := PriceCtx(context.Background(), tc.o, mkt, tc.method, cfg)
			if err != nil {
				t.Fatalf("%s: background: %v", tc.name, err)
			}
			got, err := PriceCtx(live, tc.o, mkt, tc.method, cfg)
			if err != nil {
				t.Fatalf("%s: live ctx: %v", tc.name, err)
			}
			if got != want {
				t.Errorf("%s: live ctx = %+v, background = %+v (must be bit-identical)", tc.name, got, want)
			}
		})
	}
}

func TestPriceCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	for _, tc := range testOptions() {
		if _, err := PriceCtx(ctx, tc.o, mkt, tc.method, &Config{MCPaths: 16384}); err == nil {
			t.Errorf("%s: PriceCtx with cancelled ctx returned nil error", tc.name)
		}
	}
}

// cancelOnDone is a context that reports no error until a kernel asks for
// its Done channel, and is cancelled from that moment on: every upfront
// Err check passes, so only a loop that polls the channel notices.
type cancelOnDone struct {
	context.Context
	ch   chan struct{}
	once sync.Once
}

func (c *cancelOnDone) Done() <-chan struct{} {
	c.once.Do(func() { close(c.ch) })
	return c.ch
}

func (c *cancelOnDone) Err() error {
	select {
	case <-c.ch:
		return context.Canceled
	default:
		return nil
	}
}

// TestPriceCtxCancelledMidRun pins that every iterative method honours a
// cancellation that arrives after pricing has started (a single
// closed-form evaluation has only the upfront check).
func TestPriceCtxCancelledMidRun(t *testing.T) {
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	for _, tc := range testOptions() {
		if tc.method == ClosedForm {
			continue
		}
		ctx := &cancelOnDone{Context: context.Background(), ch: make(chan struct{})}
		if _, err := PriceCtx(ctx, tc.o, mkt, tc.method, &Config{MCPaths: 16384}); err != context.Canceled {
			t.Errorf("%s: PriceCtx cancelled mid-run returned %v, want context.Canceled", tc.name, err)
		}
		// The request-level entry stops at the same checkpoint: within the
		// first option's first RNGChunk / level block / time step.
		ctx = &cancelOnDone{Context: context.Background(), ch: make(chan struct{})}
		if _, err := PriceRequestCtx(ctx, []Option{tc.o, tc.o}, mkt, tc.method, &Config{MCPaths: 16384}); err != context.Canceled {
			t.Errorf("%s: PriceRequestCtx cancelled mid-run returned %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestPriceRequestCtxBitMatchesPriceCtx pins the request-level contract:
// out[i] is PriceCtx(opts[i]) bit for bit, for every method, whatever
// else is in the request — for Monte Carlo that means each option is
// priced as if alone on stream (0, seed) although the request generates
// the normals once.
func TestPriceRequestCtxBitMatchesPriceCtx(t *testing.T) {
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	cfg := &Config{MCPaths: 5000, BinomialSteps: 255, GridPoints: 64, TimeSteps: 100, Seed: 9}
	euro := []Option{
		{Type: Call, Spot: 100, Strike: 105, Expiry: 0.5},
		{Type: Put, Spot: 100, Strike: 95, Expiry: 1},
		{Type: Put, Spot: 80, Strike: 100, Expiry: 0.25},
		{Type: Call, Spot: 120, Strike: 100, Expiry: 2},
	}
	amer := append([]Option(nil), euro...)
	for i := range amer {
		amer[i].Style = American
	}
	for _, method := range []Method{ClosedForm, BinomialTree, FiniteDifference, MonteCarlo, TrinomialTree} {
		for _, opts := range [][]Option{euro, amer} {
			got, err := PriceRequestCtx(context.Background(), opts, mkt, method, cfg)
			var werr error // the first failing option decides the request's error
			for i, o := range opts {
				var want Result
				if want, werr = PriceCtx(context.Background(), o, mkt, method, cfg); werr != nil {
					break
				}
				if err == nil && got[i] != want {
					t.Errorf("%v option %d: request %+v, alone %+v (must be bit-identical)", method, i, got[i], want)
				}
			}
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Errorf("%v: request error %v, per-option error %v", method, err, werr)
			}
		}
	}
	// One American contract in position 2 fails a Monte Carlo request with
	// the error that option returns alone.
	mixed := append([]Option(nil), euro...)
	mixed[2].Style = American
	_, werr := PriceCtx(context.Background(), mixed[2], mkt, MonteCarlo, cfg)
	if _, err := PriceRequestCtx(context.Background(), mixed, mkt, MonteCarlo, cfg); err == nil || err.Error() != werr.Error() {
		t.Errorf("mixed request error %v, want %v", err, werr)
	}
}

// TestPriceRequestCtxFiniteDifferencePairs pins the multi-option
// Crank-Nicolson request: for every request size k = 1..5 over American
// and European puts and calls mixed, out[i] is PriceCtx(opts[i]) bit for
// bit; and an invalid option at any position fails the request with the
// error the per-option loop returns.
func TestPriceRequestCtxFiniteDifferencePairs(t *testing.T) {
	mkt := Market{Rate: 0.03, Volatility: 0.25}
	cfg := &Config{GridPoints: 96, TimeSteps: 150}
	pool := []Option{
		{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1.5},
		{Type: Call, Spot: 100, Strike: 105, Expiry: 0.5},
		{Type: Call, Style: American, Spot: 120, Strike: 100, Expiry: 2},
		{Type: Put, Spot: 80, Strike: 100, Expiry: 0.25},
		{Type: Put, Style: American, Spot: 95, Strike: 100, Expiry: 0.75},
	}
	for k := 1; k <= len(pool); k++ {
		for shift := range pool {
			opts := make([]Option, k)
			for i := range opts {
				opts[i] = pool[(shift+i)%len(pool)]
			}
			got, err := PriceRequestCtx(context.Background(), opts, mkt, FiniteDifference, cfg)
			if err != nil {
				t.Fatalf("k=%d shift=%d: %v", k, shift, err)
			}
			for i, o := range opts {
				want, err := PriceCtx(context.Background(), o, mkt, FiniteDifference, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("k=%d shift=%d option %d: request %+v, alone %+v (must be bit-identical)", k, shift, i, got[i], want)
				}
			}
			for bad := range opts {
				broken := append([]Option(nil), opts...)
				broken[bad].Strike = 0
				var werr error
				for _, o := range broken {
					if _, werr = PriceCtx(context.Background(), o, mkt, FiniteDifference, cfg); werr != nil {
						break
					}
				}
				if _, err := PriceRequestCtx(context.Background(), broken, mkt, FiniteDifference, cfg); err == nil || werr == nil || err.Error() != werr.Error() {
					t.Errorf("k=%d invalid option %d: request error %v, per-option error %v", k, bad, err, werr)
				}
			}
		}
	}
}

// TestPriceCtxDeadlineStopsEarly checks that a tight deadline aborts a
// heavy Monte Carlo pricing well before its uncancelled runtime.
func TestPriceCtxDeadlineStopsEarly(t *testing.T) {
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	o := Option{Type: Call, Spot: 100, Strike: 100, Expiry: 0.5}
	cfg := &Config{MCPaths: 1 << 23}

	start := time.Now()
	full, err := PriceCtx(context.Background(), o, mkt, MonteCarlo, cfg)
	if err != nil {
		t.Fatalf("uncancelled: %v", err)
	}
	fullDur := time.Since(start)
	_ = full

	ctx, cancel := context.WithTimeout(context.Background(), fullDur/20)
	defer cancel()
	start = time.Now()
	_, err = PriceCtx(ctx, o, mkt, MonteCarlo, cfg)
	cancelledDur := time.Since(start)
	if err == nil {
		t.Fatal("deadline-bound pricing returned nil error")
	}
	if cancelledDur > fullDur/2 {
		t.Errorf("cancelled run took %v of a %v full run; cancellation did not propagate", cancelledDur, fullDur)
	}
}

func TestPriceBatchCtxBackgroundBitMatchesPriceBatch(t *testing.T) {
	const n = 4099 // odd size exercises the scalar tails
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	rnd := rand.New(rand.NewSource(7))
	mk := func() *Batch {
		b := NewBatch(n)
		for i := 0; i < n; i++ {
			b.Spots[i] = 50 + 100*rnd.Float64()
			b.Strikes[i] = 50 + 100*rnd.Float64()
			b.Expiries[i] = 0.1 + 2*rnd.Float64()
		}
		return b
	}
	for _, level := range []OptLevel{LevelBasic, LevelIntermediate, LevelAdvanced} {
		a, b := mk(), mk()
		copy(b.Spots, a.Spots)
		copy(b.Strikes, a.Strikes)
		copy(b.Expiries, a.Expiries)
		if err := PriceBatch(a, mkt, level); err != nil {
			t.Fatalf("%v: PriceBatch: %v", level, err)
		}
		if err := PriceBatchCtx(context.Background(), b, mkt, level); err != nil {
			t.Fatalf("%v: PriceBatchCtx: %v", level, err)
		}
		for i := 0; i < n; i++ {
			if a.Calls[i] != b.Calls[i] || a.Puts[i] != b.Puts[i] {
				t.Fatalf("%v: option %d differs: (%v,%v) vs (%v,%v)",
					level, i, a.Calls[i], a.Puts[i], b.Calls[i], b.Puts[i])
			}
		}
	}
}

// TestAdvancedCompositionIndependence underpins request coalescing: pricing
// a set of options as one LevelAdvanced mega-batch must produce bitwise the
// same prices as pricing any partition of it as separate batches, because
// the Advanced kernel is purely elementwise. The server's coalescer relies
// on this to return bit-identical answers whether or not a request was
// merged with its neighbors.
func TestAdvancedCompositionIndependence(t *testing.T) {
	const n = 10007
	mkt := Market{Rate: 0.02, Volatility: 0.3}
	rnd := rand.New(rand.NewSource(11))
	whole := NewBatch(n)
	for i := 0; i < n; i++ {
		whole.Spots[i] = 50 + 100*rnd.Float64()
		whole.Strikes[i] = 50 + 100*rnd.Float64()
		whole.Expiries[i] = 0.1 + 2*rnd.Float64()
	}
	if err := PriceBatch(whole, mkt, LevelAdvanced); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 5; trial++ {
		// Random partition of [0,n) into segments of size 1..2000.
		lo := 0
		for lo < n {
			sz := 1 + rnd.Intn(2000)
			if lo+sz > n {
				sz = n - lo
			}
			part := &Batch{
				Spots:    whole.Spots[lo : lo+sz],
				Strikes:  whole.Strikes[lo : lo+sz],
				Expiries: whole.Expiries[lo : lo+sz],
				Calls:    make([]float64, sz),
				Puts:     make([]float64, sz),
			}
			if err := PriceBatch(part, mkt, LevelAdvanced); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sz; i++ {
				if part.Calls[i] != whole.Calls[lo+i] || part.Puts[i] != whole.Puts[lo+i] {
					t.Fatalf("trial %d: option %d (segment [%d,%d)) differs from mega-batch: (%v,%v) vs (%v,%v)",
						trial, lo+i, lo, lo+sz, part.Calls[i], part.Puts[i], whole.Calls[lo+i], whole.Puts[lo+i])
				}
			}
			lo += sz
		}
	}
}
