package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"finbench/internal/serve/pricecache"
)

// The driver is closed-loop: each client owns one keep-alive connection
// and sends its next request only when the previous reply has been read
// in full, because callers of a pricing service are risk engines that
// wait for the answer. Requests are drawn from the inputs by a shared
// ordinal, so the request sequence depends on the seed alone, not on
// which client happens to be free.

// sampleEvery is the verification sample of in-window replies: ordinals
// divisible by it keep their body for recomputation after the window.
const sampleEvery = 32

// sample is a retained reply awaiting verification.
type sample struct {
	ordinal int64
	req     *request
	body    []byte
}

// failure describes one failed operation with the ordinal that
// reproduces it (together with the seed and workload).
type failure struct {
	ordinal int64
	what    string
}

// routeCounts are the per-request facts a router reports in headers:
// forwarded replies carry X-Finserve-Attempts, scattered ones
// X-Finserve-Partitions, and a cache tier names its outcome.
type routeCounts struct {
	forwarded, attempts   int64
	scattered, partitions int64
}

// phase is the outcome of one driven interval (a warm-up or a window).
type phase struct {
	attempted, failed int
	items             int64     // items of counted 200s
	latMS             []float64 // client wall time per counted request that is not an aside
	samples           []sample
	failures          []failure

	// Filled only when a tracer is attached.
	encodeUS, decodeUS, transportUS []float64
	route                           routeCounts
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.items += q.items
	p.latMS = append(p.latMS, q.latMS...)
	p.samples = append(p.samples, q.samples...)
	p.failures = append(p.failures, q.failures...)
	p.encodeUS = append(p.encodeUS, q.encodeUS...)
	p.decodeUS = append(p.decodeUS, q.decodeUS...)
	p.transportUS = append(p.transportUS, q.transportUS...)
	p.route.forwarded += q.route.forwarded
	p.route.attempts += q.route.attempts
	p.route.scattered += q.route.scattered
	p.route.partitions += q.route.partitions
}

func (p *phase) fail(ordinal int64, format string, a ...any) {
	p.failed++
	if len(p.failures) < 16 {
		p.failures = append(p.failures, failure{ordinal, fmt.Sprintf(format, a...)})
	}
}

// driveOpts selects how long a phase runs and what it keeps.
type driveOpts struct {
	clients int
	// next is the shared request ordinal; phases of one run continue it.
	next *atomic.Int64
	// count > 0 sends exactly that many requests (warm-up); otherwise the
	// phase runs until win.close and counts replies inside win.
	count int64
	win   window
	// keepEvery retains every Nth reply body for verification.
	keepEvery int64
	// tr, when set, records a span per request phase.
	tr *tracer
}

// drive runs one phase against base and returns the merged outcome.
func drive(base string, in *inputs, o driveOpts) *phase {
	first := o.next.Load()
	parts := make([]*phase, o.clients)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = newClient(base).run(in, o, first)
		}(c)
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// client is one closed-loop caller: a private connection and private
// buffers, so clients share nothing but the ordinal counter.
type client struct {
	base  string
	http  *http.Client
	wbuf  []byte
	rbuf  []byte
	nums  []float64
	close func()
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		base:  base,
		http:  &http.Client{Transport: tr, Timeout: 60 * time.Second},
		close: tr.CloseIdleConnections,
	}
}

func (c *client) run(in *inputs, o driveOpts, first int64) *phase {
	defer c.close()
	p := &phase{}
	for {
		if o.count == 0 && !time.Now().Before(o.win.close) {
			return p
		}
		ordinal := o.next.Add(1) - 1
		if o.count > 0 && ordinal >= first+o.count {
			return p
		}
		c.one(in.at(ordinal), ordinal, o, p)
	}
}

// one sends a single request and accounts for its reply.
func (c *client) one(r *request, ordinal int64, o driveOpts, p *phase) {
	encStart := time.Now()
	body, err := r.appendBody(c.wbuf[:0])
	c.wbuf = body
	if err != nil {
		p.attempted++
		p.fail(ordinal, "encoding request: %v", err)
		return
	}

	start := time.Now()
	status, hdr, err := c.exchange(r, body)
	done := time.Now()

	if o.count == 0 && !o.win.contains(done) {
		return // finished after the window closed: waited for, not credited
	}
	p.attempted++
	if err != nil {
		p.fail(ordinal, "transport: %v", err)
		return
	}
	if status != http.StatusOK {
		p.fail(ordinal, "status %d: %.120s", status, c.rbuf)
		return
	}
	elapsedUS, ok := c.decode(r)
	if !ok {
		p.fail(ordinal, "reply does not carry %d results", r.items())
		return
	}
	decEnd := time.Now()
	p.items += int64(r.items())
	if !r.aside {
		p.latMS = append(p.latMS, float64(done.Sub(start))/1e6)
	}
	if o.keepEvery > 0 && ordinal%o.keepEvery == 0 {
		p.samples = append(p.samples, sample{ordinal, r, append([]byte(nil), c.rbuf...)})
	}

	tr := o.tr
	if tr == nil {
		return
	}
	t0, t1, t2, t3 := tr.at(encStart), tr.at(start), tr.at(done), tr.at(decEnd)
	root := tr.add("client.request", t0, t3, ordinal, 0, nil)
	tr.add("client.encode", t0, t1, ordinal, root, nil)
	rtt := tr.add("client.rtt", t1, t2, ordinal, root, p.route.note(hdr))
	if elapsedUS >= 0 {
		// The server reports only a duration; centre it in the round
		// trip so both transport legs show as the parent's self time.
		e := min(elapsedUS*1000, t2-t1)
		lo := t1 + (t2-t1-e)/2
		tr.add("serve.elapsed", lo, lo+e, ordinal, rtt, nil)
		p.transportUS = append(p.transportUS, float64(t2-t1-e)/1e3)
	}
	tr.add("client.decode", t2, t3, ordinal, root, nil)
	p.encodeUS = append(p.encodeUS, float64(t1-t0)/1e3)
	p.decodeUS = append(p.decodeUS, float64(t3-t2)/1e3)
}

// exchange posts body and reads the whole reply into c.rbuf.
func (c *client) exchange(r *request, body []byte) (int, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path(), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", r.contentType())
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.rbuf, err = readAll(c.rbuf[:0], resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, err
}

// decode is the client's share of a reply: every number is parsed (a
// caller needs the prices, not the bytes) and the result count checked.
// It returns the server's echoed elapsed_us, or -1 when the endpoint
// reports none.
func (c *client) decode(r *request) (elapsedUS int64, ok bool) {
	switch r.kind {
	case kindColumnar:
		prices, elapsed, ok := decodeColumnarPrices(c.nums[:0], c.rbuf)
		c.nums = prices
		return elapsed, ok && len(prices) == r.items()
	case kindScenario:
		c.nums = scanNumbers(c.nums[:0], c.rbuf)
		// base_value, three cell counts, one P&L per cell, the ladder.
		return -1, len(c.nums) >= r.scen.NumCells()+4
	case kindGreeks:
		c.nums = scanNumbers(c.nums[:0], c.rbuf)
		if len(c.nums) != 5*len(r.opts)+1 {
			return 0, false
		}
		return int64(c.nums[len(c.nums)-1]), true
	default:
		c.nums = scanNumbers(c.nums[:0], c.rbuf)
		// One price per option (plus std_err for Monte Carlo), five
		// config fields, optional batch_options, elapsed_us last.
		if len(c.nums) < len(r.opts)+6 {
			return 0, false
		}
		return int64(c.nums[len(c.nums)-1]), true
	}
}

// note folds one reply's routing headers into the counts and returns them
// as span attributes. Against a lone server every header is absent.
func (rc *routeCounts) note(h http.Header) map[string]string {
	var attrs map[string]string
	attr := func(k, v string) {
		if attrs == nil {
			attrs = make(map[string]string, 3)
		}
		attrs[k] = v
	}
	if v := h.Get("X-Finserve-Attempts"); v != "" {
		n, _ := strconv.ParseInt(v, 10, 64) // a malformed header counts as 0
		rc.forwarded++
		rc.attempts += n
		attr("attempts", v)
	}
	if v := h.Get("X-Finserve-Partitions"); v != "" {
		n, _ := strconv.ParseInt(v, 10, 64) // a malformed header counts as 0
		rc.scattered++
		rc.partitions += n
		attr("partitions", v)
	}
	if v := h.Get(pricecache.Header); v != "" {
		attr("cache", v)
	}
	return attrs
}

// readAll appends r to dst until EOF, reusing dst's capacity.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
