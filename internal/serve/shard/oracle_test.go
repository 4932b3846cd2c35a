package shard

// Oracles for the routed /price read path. The listings below are the
// router's code before it parsed each body once: an encoding/json sniff
// of method and deadline_ms, and a cache key that decoded the body a
// second time. The one-decode path (sniffPrice, routerCacheKey on the
// decoded request) must agree with them on every input.

import (
	"bytes"
	"encoding/json"
	"testing"

	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/wire"
)

// oracleSniff is the parent's method/deadline sniff, verbatim.
func oracleSniff(body []byte) (monteCarlo bool, deadlineMS int64) {
	var sniff struct {
		Method     string `json:"method"`
		DeadlineMS int64  `json:"deadline_ms"`
	}
	_ = json.Unmarshal(body, &sniff)
	monteCarlo = sniff.Method == "monte-carlo"
	deadlineMS = sniff.DeadlineMS
	return monteCarlo, deadlineMS
}

// oracleRouterCacheKey is the parent's body-keyed routerCacheKey.
func oracleRouterCacheKey(body []byte) (pricecache.Key, bool) {
	req, _, err := wire.DecodeRequest(body)
	if err != nil {
		return pricecache.Key{}, false
	}
	defer wire.PutRequest(req)
	// Columnar bodies bypass: their 200 bytes are not the cached JSON.
	if (req.Method != "" && req.Method != "closed-form") || req.Columnar != nil {
		return pricecache.Key{}, false
	}
	contracts := make([]pricecache.Contract, len(req.Options))
	for i := range req.Options {
		o := &req.Options[i]
		contracts[i] = pricecache.Contract{
			Type: o.Type, Style: o.Style,
			Spot: o.Spot, Strike: o.Strike, Expiry: o.Expiry,
		}
	}
	return pricecache.Digest("closed-form", 0, 0, pricecache.Params{
		BinomialSteps: req.Config.BinomialSteps,
		GridPoints:    req.Config.GridPoints,
		TimeSteps:     req.Config.TimeSteps,
		MCPaths:       req.Config.MCPaths,
		Seed:          req.Config.Seed,
	}, contracts), true
}

// checkSniffAgainstOracle asserts that the one-decode path yields the
// oracle's (monteCarlo, deadlineMS, key-or-bypass) for body, with the
// router cache on and off.
func checkSniffAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	wantMC, wantDL := oracleSniff(body)
	wantKey, wantOK := oracleRouterCacheKey(body)

	mc, dl, key, ok := sniffPrice(body, true)
	if mc != wantMC || dl != wantDL {
		t.Fatalf("cache on: (monteCarlo, deadline_ms) = (%v, %d), oracle (%v, %d): %.200q", mc, dl, wantMC, wantDL, body)
	}
	if ok != wantOK || (ok && key != wantKey) {
		t.Fatalf("cache on: key-or-bypass (%x, %v), oracle (%x, %v): %.200q", key, ok, wantKey, wantOK, body)
	}
	mc, dl, _, ok = sniffPrice(body, false)
	if mc != wantMC || dl != wantDL || ok {
		t.Fatalf("cache off: (%v, %d, cacheable=%v), oracle (%v, %d): %.200q", mc, dl, ok, wantMC, wantDL, body)
	}
}

const oracleOpt = `{"spot":100,"strike":95,"expiry":1}`

// sniffCorpus covers the bodies the one-decode path must route exactly
// as the encoding/json sniff did.
func sniffCorpus() []string {
	return []string{
		// Accepted by the wire codec, every method.
		string(priceBody("", 4)),
		string(priceBody("closed-form", 2)),
		string(priceBody("monte-carlo", 2)),
		string(priceBody("binomial-tree", 2)),
		string(priceBody("crank-nicolson", 1)),
		string(priceBody("trinomial-tree", 1)),
		`{"options":[` + oracleOpt + `],"deadline_ms":250}`,
		`{"method":"monte-carlo","options":[` + oracleOpt + `],"deadline_ms":40}`,
		`{"options":[` + oracleOpt + `],"config":{"binomial_steps":64,"seed":7}}`,
		`{"options":[{"type":"put","style":"european","spot":90.5,"strike":100,"expiry":0.25}]}`,
		// Invalid JSON.
		`{"options":`, `garbage`, ``, `null`, `[]`, `{"method":"monte-carlo"`,
		`{"method":"monte-carlo","deadline_ms":50,"options":[` + oracleOpt + `]`,
		// Escapes (the fast decoder bails; the reference decides).
		`{"method":"monte\u002dcarlo","options":[` + oracleOpt + `]}`,
		`{"method":"closed\u002dform","options":[` + oracleOpt + `],"deadline_ms":9}`,
		`{"options":[{"type":"p\u0075t","spot":100,"strike":95,"expiry":1}]}`,
		// Unknown keys.
		`{"options":[` + oracleOpt + `],"client":"x"}`,
		`{"options":[` + oracleOpt + `],"method":"monte-carlo","extra":{"deadline_ms":5}}`,
		// Duplicate keys: last wins.
		`{"method":"closed-form","method":"monte-carlo","options":[` + oracleOpt + `]}`,
		`{"method":"monte-carlo","method":"closed-form","options":[` + oracleOpt + `]}`,
		`{"deadline_ms":10,"deadline_ms":20,"options":[` + oracleOpt + `]}`,
		// Case variants fold onto the same fields.
		`{"METHOD":"monte-carlo","options":[` + oracleOpt + `]}`,
		`{"Deadline_MS":30,"options":[` + oracleOpt + `]}`,
		`{"Method":"closed-form","method":"monte-carlo","options":[` + oracleOpt + `]}`,
		`{"method":"monte-carlo","Method":"closed-form","options":[` + oracleOpt + `]}`,
		// Type errors and values the codec rejects (fallback sniff).
		`{"method":"monte-carlo","deadline_ms":"5","options":[` + oracleOpt + `]}`,
		`{"method":"monte-carlo","deadline_ms":1.5,"options":[` + oracleOpt + `]}`,
		`{"deadline_ms":-5,"options":[` + oracleOpt + `]}`,
		`{"method":7,"deadline_ms":12,"options":[` + oracleOpt + `]}`,
		`{"method":"monte-carlo","options":[{"spot":-1,"strike":1,"expiry":1}],"deadline_ms":7}`,
		`{"method":"quantum","options":[` + oracleOpt + `],"deadline_ms":3}`,
		`{"options":[{"style":"american","spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[],"deadline_ms":11}`,
		`{"options":[` + oracleOpt + `],"config":{"binomial_steps":-1}}`,
		// Non-closed-form methods are never cacheable.
		`{"method":"binomial-tree","options":[{"style":"american","type":"put","spot":1,"strike":1,"expiry":1}]}`,
		// Columns have no JSON form: "columnar" is an unknown key, so a
		// body without options answers 400 and one with options keys on
		// them alone.
		`{"columnar":{"spot":[100],"strike":[95],"expiry":[1]}}`,
		`{"columnar":{"spot":[100],"strike":[95],"expiry":[1]},"deadline_ms":60}`,
		`{"method":"monte-carlo","columnar":{"spot":[100],"strike":[95],"expiry":[1]}}`,
		`{"options":[` + oracleOpt + `],"columnar":{"spot":[100],"strike":[95],"expiry":[1]}}`,
	}
}

func TestRouteSniffMatchesOracle(t *testing.T) {
	for _, body := range sniffCorpus() {
		checkSniffAgainstOracle(t, []byte(body))
	}
}

// TestRouteSniffOverLimitMatchesOracle: a body with one option more than
// the wire codec's ceiling is rejected by it and routed by the fallback
// sniff, exactly as before.
func TestRouteSniffOverLimitMatchesOracle(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"method":"monte-carlo","deadline_ms":77,"options":[`)
	for i := 0; i <= wire.MaxRequestOptions; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{}`)
	}
	b.WriteString(`]}`)
	checkSniffAgainstOracle(t, b.Bytes())
	if mc, dl, _, ok := sniffPrice(b.Bytes(), true); !mc || dl != 77 || ok {
		t.Fatalf("over-limit body: (%v, %d, cacheable=%v), want (true, 77, false)", mc, dl, ok)
	}
}

func FuzzRouteSniff(f *testing.F) {
	for _, body := range sniffCorpus() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSniffAgainstOracle(t, body)
	})
}
