package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"finbench/internal/scenario"
	"finbench/internal/serve/wire"
)

// Input generation. Everything a server sees is drawn here from the
// workload seed alone: no generator reads the clock or the process-global
// rand source, so the same seed replays the same contracts, the same Zipf
// ranks, the same method schedule and the same portfolios — pinned by the
// inputs digest each run prints.

// reqKind selects the endpoint and framing of a generated request.
type reqKind uint8

const (
	kindPrice    reqKind = iota // POST /price, JSON options
	kindGreeks                  // POST /greeks, JSON options
	kindColumnar                // POST /price, binary FBC1 frame
	kindScenario                // POST /scenario
)

// request is one generated request in typed form. The driver encodes it
// per send (a caller of a pricing service holds contracts, not bytes) and
// the verifier recomputes its answer from the same fields.
type request struct {
	kind   reqKind
	method string // wire method name; "" is closed-form
	// aside marks the minority request kind of a mixed workload: sent,
	// counted and verified like any other, but left out of the latency
	// percentiles. Two kinds with separate latency modes put the median
	// of the mix on the gap between them, where it jumps by a third when
	// the shares move by a few points; the percentiles are of the
	// majority kind instead.
	aside bool
	opts  []wire.Option
	cols  *wire.Columns
	scen  *scenario.Request
}

// items is the number of units throughput_items_s counts for the request:
// options, or position×cell valuations for a scenario.
func (r *request) items() int {
	switch r.kind {
	case kindColumnar:
		return len(r.cols.Spots)
	case kindScenario:
		return len(r.scen.Portfolio) * r.scen.NumCells()
	default:
		return len(r.opts)
	}
}

func (r *request) path() string {
	switch r.kind {
	case kindGreeks:
		return "/greeks"
	case kindScenario:
		return "/scenario"
	default:
		return "/price"
	}
}

func (r *request) contentType() string {
	if r.kind == kindColumnar {
		return wire.ColumnarContentType
	}
	return "application/json"
}

// appendBody appends the request's wire encoding to dst. The JSON matches
// encoding/json's field order and omitempty rules for wire.PriceRequest,
// so the server's allocation-free decoder takes it.
func (r *request) appendBody(dst []byte) ([]byte, error) {
	switch r.kind {
	case kindColumnar:
		return wire.AppendColumnarRequest(dst, &wire.PriceRequest{Columnar: r.cols}), nil
	case kindScenario:
		b, err := json.Marshal(r.scen)
		return append(dst, b...), err
	}
	dst = append(dst, '{')
	if r.method != "" {
		dst = append(dst, `"method":"`...)
		dst = append(dst, r.method...)
		dst = append(dst, `",`...)
	}
	dst = append(dst, `"options":[`...)
	for i := range r.opts {
		o := &r.opts[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		if o.Type != "" {
			dst = append(dst, `"type":"`...)
			dst = append(dst, o.Type...)
			dst = append(dst, `",`...)
		}
		if o.Style != "" {
			dst = append(dst, `"style":"`...)
			dst = append(dst, o.Style...)
			dst = append(dst, `",`...)
		}
		dst = append(dst, `"spot":`...)
		dst = strconv.AppendFloat(dst, o.Spot, 'g', -1, 64)
		dst = append(dst, `,"strike":`...)
		dst = strconv.AppendFloat(dst, o.Strike, 'g', -1, 64)
		dst = append(dst, `,"expiry":`...)
		dst = strconv.AppendFloat(dst, o.Expiry, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...), nil
}

// inputs is a workload's generated request pool and the order requests
// are drawn from it: request ordinal i sends pool[schedule[i%len]].
type inputs struct {
	pool     []request
	schedule []int32
	digest   string
}

func (in *inputs) at(ordinal int64) *request {
	return &in.pool[in.schedule[ordinal%int64(len(in.schedule))]]
}

// subSeed derives an independent generator seed from the workload seed
// and a stream tag (splitmix64 finaliser), so adding a draw to one
// stream never shifts another.
func subSeed(seed uint64, tag uint64) int64 {
	x := seed + 0x9E3779B97F4A7C15*(tag+1)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}

// contracts draws n plausible vanilla contracts: spot and strike in
// [50,150), expiry in [0.1,3.1) years, half puts.
func contracts(rng *rand.Rand, n int) []wire.Option {
	opts := make([]wire.Option, n)
	for i := range opts {
		o := &opts[i]
		o.Spot = 50 + 100*rng.Float64()
		o.Strike = 50 + 100*rng.Float64()
		o.Expiry = 0.1 + 3*rng.Float64()
		if rng.Intn(2) == 1 {
			o.Type = "put"
		}
	}
	return opts
}

// sequential is the schedule that walks the pool in order.
func sequential(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// genQuote builds the interactive mix: n requests of 16 unique
// closed-form options, every fifth one a /greeks request (an aside: the
// workload's latency percentiles are those of /price).
func genQuote(seed uint64, n int) *inputs {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	in := &inputs{pool: make([]request, n), schedule: sequential(n)}
	for i := range in.pool {
		in.pool[i] = request{kind: kindPrice, opts: contracts(rng, 16)}
		if i%5 == 4 {
			in.pool[i].kind, in.pool[i].aside = kindGreeks, true
		}
	}
	return in.seal()
}

// genBulk builds n binary columnar frames of perFrame unique options.
func genBulk(seed uint64, n, perFrame int) *inputs {
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	in := &inputs{pool: make([]request, n), schedule: sequential(n)}
	for i := range in.pool {
		c := &wire.Columns{
			Spots:    make([]float64, perFrame),
			Strikes:  make([]float64, perFrame),
			Expiries: make([]float64, perFrame),
		}
		types := make([]byte, perFrame)
		for j := 0; j < perFrame; j++ {
			c.Spots[j] = 50 + 100*rng.Float64()
			c.Strikes[j] = 50 + 100*rng.Float64()
			c.Expiries[j] = 0.1 + 3*rng.Float64()
			types[j] = "cp"[rng.Intn(2)]
		}
		c.Types = string(types)
		in.pool[i] = request{kind: kindColumnar, cols: c}
	}
	return in.seal()
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 with weights
// 1/(r+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

// genZipf builds a pool of `pool` closed-form batches of perBatch options
// and a schedule of `draws` Zipf(s) ranks over it; rank 0 is the hottest
// batch. Whole batches repeat because the response cache is keyed by the
// digest of the full batch.
func genZipf(seed uint64, pool, perBatch, draws int, s float64) *inputs {
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	in := &inputs{pool: make([]request, pool), schedule: make([]int32, draws)}
	for i := range in.pool {
		in.pool[i] = request{kind: kindPrice, opts: contracts(rng, perBatch)}
	}
	ranks := rand.New(rand.NewSource(subSeed(seed, 4)))
	cdf := zipfCDF(pool, s)
	for i := range in.schedule {
		r := sort.SearchFloat64s(cdf, ranks.Float64())
		if r >= pool {
			r = pool - 1
		}
		in.schedule[i] = int32(r)
	}
	return in.seal()
}

// heavyBlock is the method mix of one schedule block: nine binomial-tree
// requests to one Crank-Nicolson and one Monte Carlo, which at the
// paper's default sizes is about equal server time for each kernel.
var heavyBlock = [11]string{
	"binomial-tree", "binomial-tree", "binomial-tree", "binomial-tree", "binomial-tree",
	"binomial-tree", "binomial-tree", "binomial-tree", "binomial-tree",
	"crank-nicolson", "monte-carlo",
}

// genHeavy builds `blocks` blocks of eleven 4-option requests. Every
// block holds exactly the 9:1:1 mix in a seeded order, so the mix a
// window sees does not depend on where it ends. The lattices price
// American puts, Monte Carlo European calls.
func genHeavy(seed uint64, blocks int) *inputs {
	rng := rand.New(rand.NewSource(subSeed(seed, 5)))
	n := blocks * len(heavyBlock)
	in := &inputs{pool: make([]request, 0, n), schedule: sequential(n)}
	for b := 0; b < blocks; b++ {
		order := rng.Perm(len(heavyBlock))
		for _, k := range order {
			method := heavyBlock[k]
			opts := contracts(rng, 4)
			for i := range opts {
				if method == "monte-carlo" {
					opts[i].Type = ""
				} else {
					opts[i].Type, opts[i].Style = "put", "american"
				}
			}
			in.pool = append(in.pool, request{kind: kindPrice, method: method, opts: opts})
		}
	}
	return in.seal()
}

// shockLadder spreads n shocks evenly over [-span, span]; one shock is
// the unshocked point.
func shockLadder(n int, span float64) []float64 {
	if n <= 1 {
		return []float64{0}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = -span + 2*span*float64(i)/float64(n-1)
	}
	return out
}

// genScenario builds n scenario requests: a portfolio of `positions`
// European contracts with signed integer quantities over a
// spot×vol×rate shock grid, no Monte Carlo generators.
func genScenario(seed uint64, n, positions int, grid [3]int) *inputs {
	rng := rand.New(rand.NewSource(subSeed(seed, 6)))
	in := &inputs{pool: make([]request, n), schedule: sequential(n)}
	for i := range in.pool {
		req := &scenario.Request{
			Portfolio: make([]scenario.Position, positions),
			Grid: scenario.Grid{
				SpotShocks: shockLadder(grid[0], 0.2),
				VolShocks:  shockLadder(grid[1], 0.05),
				RateShifts: shockLadder(grid[2], 0.01),
			},
		}
		for j := range req.Portfolio {
			p := &req.Portfolio[j]
			p.Spot = 50 + 100*rng.Float64()
			p.Strike = 50 + 100*rng.Float64()
			p.Expiry = 0.1 + 3*rng.Float64()
			// Quantity 0 is the wire's "defaults to 1" sentinel; draw
			// from ±1..9 so every position echoes what was generated.
			p.Quantity = float64(1 + rng.Intn(9))
			if rng.Intn(2) == 1 {
				p.Quantity = -p.Quantity
			}
			if rng.Intn(2) == 1 {
				p.Type = "put"
			}
		}
		in.pool[i] = request{kind: kindScenario, scen: req}
	}
	return in.seal()
}

// seal computes the inputs digest: SHA-256 over every generated field in
// pool order, then the schedule, from exact bit patterns.
func (in *inputs) seal() *inputs {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash.Write never returns an error
	}
	floats := func(xs ...float64) {
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	for i := range in.pool {
		r := &in.pool[i]
		put(uint64(r.kind))
		writeString(h, r.method)
		for j := range r.opts {
			o := &r.opts[j]
			writeString(h, o.Type)
			writeString(h, o.Style)
			floats(o.Spot, o.Strike, o.Expiry)
		}
		if c := r.cols; c != nil {
			floats(c.Spots...)
			floats(c.Strikes...)
			floats(c.Expiries...)
			writeString(h, c.Types)
		}
		if s := r.scen; s != nil {
			for j := range s.Portfolio {
				p := &s.Portfolio[j]
				writeString(h, p.Type)
				floats(p.Spot, p.Strike, p.Expiry, p.Quantity)
			}
			floats(s.Grid.SpotShocks...)
			floats(s.Grid.VolShocks...)
			floats(s.Grid.RateShifts...)
		}
	}
	for _, s := range in.schedule {
		put(uint64(s))
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return in
}

// writeString hashes a length-prefixed string, keeping the encoding
// prefix-free.
func writeString(h hash.Hash, s string) {
	var n [1]byte
	n[0] = byte(len(s))
	_, _ = h.Write(n[:])      // hash.Hash.Write never returns an error
	_, _ = h.Write([]byte(s)) // hash.Hash.Write never returns an error
}
