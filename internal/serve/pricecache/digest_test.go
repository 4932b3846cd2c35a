package pricecache

import (
	"encoding/hex"
	"strings"
	"testing"
)

// goldenContracts is a deterministic batch of n contracts cycling through
// every type/style spelling, so a block-buffered digest crosses its
// buffer boundaries with every flag combination in play.
func goldenContracts(n int) []Contract {
	types := []string{"", "call", "put"}
	styles := []string{"", "european", "american"}
	out := make([]Contract, n)
	for i := range out {
		out[i] = Contract{
			Type:   types[i%3],
			Style:  styles[(i/3)%3],
			Spot:   80 + float64(i%41)*0.875,
			Strike: 100 - float64(i%17)*1.25,
			Expiry: 0.05 + float64(i%13)/8,
		}
	}
	return out
}

// TestDigestGoldenKey pins the canonical encoding: the hex keys were
// computed with the original Digest (four 8-byte Writes per contract)
// before it was rewritten to hash whole blocks. Any byte-stream change
// re-keys every cache entry and must bump digestVersion instead.
func TestDigestGoldenKey(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method string
		rate   float64
		vol    float64
		p      Params
		cs     []Contract
		want   string
	}{
		{
			// A method longer than any block buffer, negative knobs, no
			// contracts.
			name:   "long-method-empty-batch",
			method: strings.Repeat("closed-form/", 400),
			rate:   -0.01, vol: 1.5,
			p:    Params{BinomialSteps: -1, GridPoints: 7, TimeSteps: 0, MCPaths: 1 << 20, Seed: 1<<64 - 1},
			want: "fc73bb6f80caf4cd6ebfd64dcc66c808ac7410a4fd34ab5c733a4bf1fa58a28b",
		},
		{
			// The router tier's shape: request content only, zero market.
			name:   "router-small-batch",
			method: "closed-form",
			cs: []Contract{
				{Spot: 100, Strike: 95, Expiry: 1},
				{Type: "call", Style: "european", Spot: 100, Strike: 95, Expiry: 1},
				{Type: "put", Spot: 90.5, Strike: 100, Expiry: 0.25},
				{Style: "american", Type: "put", Spot: 120, Strike: 80, Expiry: 2},
			},
			want: "22aa01f9936fc1e22dce11c3dd3b70812bfa0044bea31cdbddfdaf87c327a106",
		},
		{
			// A keyed market and a full config, a batch spanning many
			// blocks.
			name:   "market-1000",
			method: "closed-form",
			rate:   0.02, vol: 0.3,
			p:    Params{BinomialSteps: 1024, GridPoints: 256, TimeSteps: 1000, MCPaths: 262144, Seed: 42},
			cs:   goldenContracts(1000),
			want: "ea1637e82341ba55a4039d81ae09f3fcdcd4e068d9b7178549592673a086912b",
		},
	} {
		got := Digest(tc.method, tc.rate, tc.vol, tc.p, tc.cs)
		if h := hex.EncodeToString(got[:]); h != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, h, tc.want)
		}
	}
}

func BenchmarkDigest1024(b *testing.B) {
	cs := goldenContracts(1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(cs)) * 32)
	for i := 0; i < b.N; i++ {
		Digest("closed-form", 0, 0, Params{}, cs)
	}
}
