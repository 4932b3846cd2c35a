package finbench

import (
	"context"
	"fmt"
	"sync"

	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/cranknicolson"
	"finbench/internal/layout"
	"finbench/internal/montecarlo"
	"finbench/internal/perf"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// Cancellable entry points. PriceCtx and PriceBatchCtx are the one
// implementation behind Price and PriceBatch, with deadline/cancellation
// propagation: the context's done signal reaches the kernel loops (Monte
// Carlo path chunks, Crank-Nicolson time steps, lattice level blocks,
// closed-form option blocks), so a pricing request whose deadline has
// passed stops consuming CPU within a bounded amount of work instead of
// running to completion. The checks sit between work blocks and never
// change decomposition, iteration order, or arithmetic, and a context that
// carries no cancellation signal (context.Background, context.TODO) skips
// them, so the plain names are one-line delegates and results are
// bit-identical through either. On a non-nil error any outputs are partial
// and must be discarded.

// PriceCtx is Price with cancellation. It returns ctx.Err() (wrapped) if
// the context is cancelled before or during pricing.
func PriceCtx(ctx context.Context, o Option, m Market, method Method, cfg *Config) (Result, error) {
	if err := validate(o, m); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	c := cfg.withDefaults()
	mkt := m.internal()
	switch method {
	case ClosedForm:
		if o.Style == American {
			return Result{}, fmt.Errorf("%w: closed form is European-only", ErrMethodStyle)
		}
		// A single closed-form evaluation is microseconds of work; the
		// upfront ctx check above is the only checkpoint it needs.
		call, put := blackscholes.PriceScalar(o.Spot, o.Strike, o.Expiry, mkt)
		return Result{Price: pick(o.Type, call, put), Method: method}, nil

	case BinomialTree:
		if o.Style == American {
			if o.Type == Call {
				v, err := binomial.PriceScalarCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
				if err != nil {
					return Result{}, err
				}
				return Result{Price: v, Method: method}, nil
			}
			v, err := binomial.PriceAmericanPutScalarCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
			if err != nil {
				return Result{}, err
			}
			return Result{Price: v, Method: method}, nil
		}
		call, err := binomial.PriceScalarCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
		if err != nil {
			return Result{}, err
		}
		if o.Type == Call {
			return Result{Price: call, Method: method}, nil
		}
		put := call - o.Spot + o.Strike*discount(m, o.Expiry)
		return Result{Price: put, Method: method}, nil

	case FiniteDifference:
		// The k = 1 call of the request path: one lone lane of the solver.
		var out [1]Result
		if err := priceFiniteDifference(ctx, []Option{o}, m, c, out[:]); err != nil {
			return Result{}, err
		}
		return out[0], nil

	case TrinomialTree:
		steps := c.BinomialSteps
		switch {
		case o.Style == American && o.Type == Put:
			v, err := binomial.PriceAmericanPutTrinomialCtx(ctx, o.Spot, o.Strike, o.Expiry, steps, mkt)
			if err != nil {
				return Result{}, err
			}
			return Result{Price: v, Method: TrinomialTree}, nil
		case o.Type == Call:
			// American call on a non-dividend asset = European call.
			v, err := binomial.PriceTrinomialCtx(ctx, o.Spot, o.Strike, o.Expiry, steps, mkt)
			if err != nil {
				return Result{}, err
			}
			return Result{Price: v, Method: TrinomialTree}, nil
		default: // European put via parity
			call, err := binomial.PriceTrinomialCtx(ctx, o.Spot, o.Strike, o.Expiry, steps, mkt)
			if err != nil {
				return Result{}, err
			}
			return Result{Price: call - o.Spot + o.Strike*discount(m, o.Expiry), Method: TrinomialTree}, nil
		}

	case MonteCarlo:
		// The k = 1 call of the request path: one host kernel either way.
		var out [1]Result
		if err := priceMonteCarlo(ctx, []Option{o}, m, c, out[:]); err != nil {
			return Result{}, err
		}
		return out[0], nil

	default:
		return Result{}, fmt.Errorf("finbench: unknown method %v", method)
	}
}

// PriceRequestCtx prices the options of one request under a single method
// and configuration. By contract out[i] is bit-identical to
// PriceCtx(ctx, opts[i], m, method, cfg), and the error is the one the
// first failing option would return; what the request form adds is that
// work the options share is done once or side by side. For Monte Carlo
// that is the whole normal stream: every option of a request runs on
// stream (0, seed), so the normals are generated once per request instead
// of once per option. Crank-Nicolson options go to the solver in pairs
// that share a time loop and run two PSOR sweeps of each option in one
// loop, each option's arithmetic unchanged. The trees are priced option
// by option.
// A request is still one attempt: never split across workers, never
// merged with another request.
func PriceRequestCtx(ctx context.Context, opts []Option, m Market, method Method, cfg *Config) ([]Result, error) {
	if len(opts) == 0 {
		return nil, ctx.Err()
	}
	out := make([]Result, len(opts))
	switch method {
	case MonteCarlo:
		if err := priceMonteCarlo(ctx, opts, m, cfg.withDefaults(), out); err != nil {
			return nil, err
		}
		return out, nil
	case FiniteDifference:
		if err := priceFiniteDifference(ctx, opts, m, cfg.withDefaults(), out); err != nil {
			return nil, err
		}
		return out, nil
	}
	for i := range opts {
		res, err := PriceCtx(ctx, opts[i], m, method, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// priceFiniteDifference is the Crank-Nicolson body behind PriceCtx (one
// option) and PriceRequestCtx (a request's options). Every option is a
// put on the lattice: an American put is solved with the early-exercise
// obstacle, and every other option as the European put, a call recovered
// by parity (an American call on a non-dividend asset is worth the
// European one). It validates every option first, in PriceCtx's order, so
// the first failing option decides the error, then hands the puts to the
// solver, which prices them two at a time. c is the resolved
// configuration.
func priceFiniteDifference(ctx context.Context, opts []Option, m Market, c Config, out []Result) error {
	puts := make([]cranknicolson.Put, len(opts))
	for i, o := range opts {
		if err := validate(o, m); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		puts[i] = cranknicolson.Put{Spot: o.Spot, Strike: o.Strike, T: o.Expiry, American: o.Style == American && o.Type != Call}
	}
	if err := cranknicolson.PricePutsCtx(ctx, puts, c.GridPoints, c.TimeSteps, m.internal()); err != nil {
		return err
	}
	for i, o := range opts {
		price := puts[i].Price
		if !puts[i].American && o.Type != Put {
			price = price + o.Spot - o.Strike*discount(m, o.Expiry)
		}
		out[i] = Result{Price: price, Method: FiniteDifference}
	}
	return nil
}

// priceMonteCarlo is the Monte Carlo body behind PriceCtx (one option)
// and PriceRequestCtx (a request's options): European calls priced on
// the shared stream, puts recovered by parity. It validates option by
// option in PriceCtx's order, so the first failing option decides the
// error. c is the resolved configuration.
func priceMonteCarlo(ctx context.Context, opts []Option, m Market, c Config, out []Result) error {
	n := len(opts)
	cols := make([]float64, 5*n)
	b := &workload.MCBatch{
		S: cols[:n], X: cols[n : 2*n], T: cols[2*n : 3*n],
		Price: cols[3*n : 4*n], StdErr: cols[4*n:],
	}
	for i, o := range opts {
		if err := validate(o, m); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if o.Style == American {
			return fmt.Errorf("%w: Monte Carlo engine is European-only", ErrMethodStyle)
		}
		b.S[i], b.X[i], b.T[i] = o.Spot, o.Strike, o.Expiry
	}
	if err := montecarlo.SharedStreamCtx(ctx, b, c.MCPaths, c.Seed, m.internal()); err != nil {
		return err
	}
	for i, o := range opts {
		price := b.Price[i]
		if o.Type == Put {
			price = price - o.Spot + o.Strike*discount(m, o.Expiry)
		}
		out[i] = Result{Price: price, StdErr: b.StdErr[i], Method: MonteCarlo}
	}
	return nil
}

// PriceBatchCtx is PriceBatch with cancellation checked between option
// blocks inside the kernels. On a non-nil error the batch outputs are
// partial and must be discarded.
func PriceBatchCtx(ctx context.Context, b *Batch, m Market, level OptLevel) error {
	return priceBatch(ctx, b, m, level, vec.MaxWidth, nil)
}

// priceBatch is the one closed-form batch body behind PriceBatch,
// PriceBatchCtx and ProfileBatch: width is the SIMD width of the vector
// levels and a non-nil c records the operation mix.
func priceBatch(ctx context.Context, b *Batch, m Market, level OptLevel, width int, c *perf.Counts) error {
	if b.Len() == 0 {
		return ctx.Err()
	}
	mkt := m.internal()
	switch level {
	case LevelBasic:
		aos := layout.NewAOS(b.Len())
		for i := 0; i < b.Len(); i++ {
			aos.Set(i, b.Spots[i], b.Strikes[i], b.Expiries[i])
		}
		if err := blackscholes.BasicCtx(ctx, aos, mkt, width, c); err != nil {
			return err
		}
		// Copy the prices back so every level leaves the batch in the same
		// state (the SOA levels write through b.Calls/b.Puts directly).
		for i := 0; i < b.Len(); i++ {
			b.Calls[i] = aos.Call(i)
			b.Puts[i] = aos.Put(i)
		}
		return nil
	case LevelIntermediate, LevelAdvanced:
		// The SOA wrapper is five slice headers over the batch's own
		// storage; pooled because taking its address makes it escape,
		// which would put one allocation on every serving-tier request.
		soa := soaPool.Get().(*layout.SOA)
		*soa = layout.SOA{S: b.Spots, X: b.Strikes, T: b.Expiries, Call: b.Calls, Put: b.Puts}
		var err error
		if level == LevelIntermediate {
			err = blackscholes.IntermediateCtx(ctx, soa, mkt, width, c)
		} else {
			err = blackscholes.AdvancedCtx(ctx, soa, mkt, width, c)
		}
		*soa = layout.SOA{} // drop the slice references before pooling
		soaPool.Put(soa)
		return err
	default:
		return fmt.Errorf("finbench: unknown optimization level %v", level)
	}
}

var soaPool = sync.Pool{New: func() any { return new(layout.SOA) }}
