package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"finbench/internal/serve"
	"finbench/internal/serve/wire"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestSpread pins the spread to Python's statistics.quantiles(xs, n=4),
// [2.75, 5.5, 8.25] for 1..10, and to the range below four values.
func TestSpread(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4, 8], n=4) is [1.25, 3.0, 7.0].
	if got, want := spread([]float64{8, 1, 4, 2}), (7-1.25)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of four = %v, want %v", got, want)
	}
	if got, want := spread([]float64{12, 10}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one = %v, want 0", got)
	}
}

func TestWindowArithmetic(t *testing.T) {
	open := time.Unix(100, 0)
	w := window{open: open, close: open.Add(4 * time.Second)}
	if !w.contains(open) || !w.contains(w.close) || !w.contains(open.Add(time.Second)) {
		t.Error("window must contain its edges and interior")
	}
	if w.contains(open.Add(-time.Nanosecond)) || w.contains(w.close.Add(time.Nanosecond)) {
		t.Error("a reply read outside the window must not count")
	}
	if got := w.rate(1000); got != 250 {
		t.Errorf("rate = %v, want 250/s", got)
	}
	if got := (window{}).rate(5); got != 0 {
		t.Errorf("empty window rate = %v, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, ID: 1},
		{Name: "a", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "b", Start: 30, End: 60, ID: 3, Parent: 1},    // overlaps a by 10
		{Name: "c", Start: 90, End: 120, ID: 4, Parent: 1},   // clipped to the parent
		{Name: "a1", Start: 15, End: 20, ID: 5, Parent: 2},   // grandchild: only a's business
		{Name: "orphan", Start: 0, End: 7, ID: 6, Parent: 9}, // unknown parent
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - (50 + 10), 2: 25, 3: 30, 4: 30, 5: 5, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestUnattributedFrac(t *testing.T) {
	ep := map[string]string{"workload": "w", "endpoint": "/price"}
	spans := []span{
		{Name: "serve.handler", Start: 0, End: 100, ID: 1, Req: 1, Attrs: ep},
		{Name: "layers", Start: 100, End: 200, ID: 2, Req: 1, Attrs: ep},
		{Name: "wire.decode", Start: 100, End: 130, ID: 3, Parent: 2},
		{Name: "wire.encode", Start: 150, End: 200, ID: 4, Parent: 2},
		{Name: "scenario.partition", Start: 130, End: 150, ID: 5, Parent: 2},
		{Name: "serve.handler", Start: 0, End: 1000, ID: 6, Attrs: map[string]string{"workload": "w", "endpoint": "/greeks"}},
	}
	if got := unattributedFrac(spans, "w", "/price"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.2", got)
	}
	if got := unattributedFrac(spans, "w", "/scenario"); got != 0 {
		t.Errorf("endpoint without spans = %v, want 0", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	text := "4242 (fin serve) (x)) S 1 4242 4242 0 -1 4194304 100 0 0 0 731 269 0 0 20 0 5 0 1000 0 0"
	ticks, err := parseProcStat(text)
	if err != nil || ticks != 1000 {
		t.Fatalf("parseProcStat = %d, %v; want 1000", ticks, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 a b c d"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed text", bad)
		}
	}
	if _, err := cpuTicks([]int{os.Getpid()}); err != nil {
		t.Errorf("reading this process's own stat: %v", err)
	}
}

func TestScanNumbers(t *testing.T) {
	body := []byte(`{"results":[{"price":1.5},{"price":-2e-3,"std_err":0.25}],"method":"closed-form 9","config":{"seed":1},"elapsed_us":412}`)
	got := scanNumbers(nil, body)
	want := []float64{1.5, -2e-3, 0.25, 1, 412}
	if len(got) != len(want) {
		t.Fatalf("scanNumbers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("number %d = %v, want %v", i, got[i], want[i])
		}
	}
	frame, err := wire.AppendColumnarResponse(nil, &wire.PriceResponse{
		Method: "closed-form", Engine: "batch-advanced", ElapsedUS: 77, Results: []wire.Result{{Price: 3}, {Price: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prices, elapsed, ok := decodeColumnarPrices(nil, frame)
	if !ok || elapsed != 77 || len(prices) != 2 || prices[1] != 4 {
		t.Errorf("decodeColumnarPrices = %v, %d, %v", prices, elapsed, ok)
	}
	if _, _, ok := decodeColumnarPrices(nil, frame[:len(frame)-1]); ok {
		t.Error("a truncated frame must not decode")
	}
}

// TestInputsDeterministic pins the satellite contract: the same seed
// gives the same inputs (so no generator reads the clock or a shared
// source), and another seed gives others.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.genSmall(1), w.genSmall(1), w.genSmall(2)
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 digests differ: %s vs %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, a.digest)
		}
		if len(a.pool) == 0 || len(a.schedule) == 0 {
			t.Errorf("%s: empty inputs", w.name)
		}
	}
	heavy := genHeavy(7, 3)
	for b := 0; b < 3; b++ {
		count := map[string]int{}
		for _, r := range heavy.pool[b*11 : (b+1)*11] {
			count[r.method]++
		}
		if count["binomial-tree"] != 9 || count["crank-nicolson"] != 1 || count["monte-carlo"] != 1 {
			t.Errorf("block %d mix = %v, want 9:1:1", b, count)
		}
	}
	quote := genQuote(1, 10)
	for i, r := range quote.pool {
		if (r.kind == kindGreeks) != (i%5 == 4) {
			t.Errorf("request %d: every fifth request must be /greeks", i)
		}
	}
}

// TestRequestEncodingMatchesWire checks the hand-rolled request encoder
// against the decoder the servers use.
func TestRequestEncodingMatchesWire(t *testing.T) {
	r := genHeavy(1, 1).pool[0]
	body, err := r.appendBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	req, method, err := wire.DecodeRequest(body)
	if err != nil {
		t.Fatalf("the server's decoder rejects the generated body: %v", err)
	}
	defer wire.PutRequest(req)
	if method.String() != r.method || len(req.Options) != len(r.opts) {
		t.Fatalf("decoded %s/%d options, sent %s/%d", method, len(req.Options), r.method, len(r.opts))
	}
	for i := range r.opts {
		if req.Options[i] != r.opts[i] {
			t.Errorf("option %d round-trips as %+v, sent %+v", i, req.Options[i], r.opts[i])
		}
	}
}

// TestSmokeEveryWorkload drives each workload's small inputs through the
// real driver and verifier against in-process servers: a counted warm-up
// with every reply verified, then a 200 ms window.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var base string
			if w.routed {
				f, err := newLocalFleet(w.cacheBytes)
				if err != nil {
					t.Fatal(err)
				}
				defer f.close()
				front := httptest.NewServer(f.router)
				defer front.Close()
				base = front.URL
			} else {
				s := serve.New(serve.Config{})
				defer s.Close()
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				base = ts.URL
			}
			in := w.genSmall(1)
			next := new(atomic.Int64)
			warm := drive(base, in, driveOpts{clients: 2, next: next, count: int64(len(in.schedule)), keepEvery: 1})
			tr := newTracer()
			win := window{open: time.Now()}
			win.close = win.open.Add(200 * time.Millisecond)
			ph := drive(base, in, driveOpts{clients: 2, next: next, win: win, keepEvery: 1, tr: tr})
			for _, p := range []*phase{warm, ph} {
				verified, mismatch := verifyAll(p)
				if p.failed != 0 || mismatch != 0 {
					t.Fatalf("attempted %d failed %d mismatch %d: %v", p.attempted, p.failed, mismatch, p.failures)
				}
				// On a loaded machine the 200 ms window may close before
				// the first heavy reply; the counted warm-up may not.
				if p == warm && (verified == 0 || p.items == 0) {
					t.Fatalf("nothing verified (%d) or counted (%d items)", verified, p.items)
				}
			}
			if warm.attempted != len(in.schedule) {
				t.Errorf("warm-up sent %d requests, want %d", warm.attempted, len(in.schedule))
			}
			if len(tr.spans) < 4*ph.attempted {
				t.Errorf("%d spans for %d traced requests", len(tr.spans), ph.attempted)
			}
			cached := 0
			for i := range tr.spans {
				if tr.spans[i].Attrs["cache"] != "" {
					cached++
				}
			}
			// A warmed router cache answers without a replica, so its
			// replies carry the cache outcome instead of routing headers.
			if w.routed && ph.attempted > 0 && ph.route.forwarded+ph.route.scattered+int64(cached) == 0 {
				t.Error("no routed reply carried the router's headers")
			}
		})
	}
}

// TestVerifierCatchesMismatch flips one bit of a good reply.
func TestVerifierCatchesMismatch(t *testing.T) {
	r := &genQuote(1, 1).pool[0]
	resp := priceResponse(r.opts)
	good, _ := wire.AppendPriceResponse(nil, resp)
	if what := verify(r, good); what != "" {
		t.Fatalf("a correct reply fails verification: %s", what)
	}
	resp.Results[3].Price = math.Nextafter(resp.Results[3].Price, math.Inf(1))
	bad, _ := wire.AppendPriceResponse(nil, resp)
	if what := verify(r, bad); what == "" {
		t.Fatal("a one-ulp price error passed verification")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in this package from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the package's default window %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from the package's %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, package %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
