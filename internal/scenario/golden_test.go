package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// The /scenario goldens: SHA-256 of the response bytes of testRequest(),
// whole and for each generator's cells alone. The serve and shard tests
// compare routed against lone answers, both computed by this package, so
// only these hashes notice when a shared kernel (mathx.Exp, the grid's
// closed form) moves the served scenarios. They hold on amd64 with and
// without FMA (GODEBUG=cpu.fma=off) and on 386: the generators take e^x
// from mathx.Exp.
const scenarioGolden = "c61a90c3a1cdcd4197cfc9ad88c4460962aaa35a10b7cfadc66f6c89a28249fb"

var scenarioGeneratorGoldens = [...]string{
	"f6ad284b1412bcc5d3be2fd4670df54a786c9e8d22d931a5c84575b4959206b8", // heston
	"fa4bda62d846eb2e82b186692bc6c8eb096045d620057f3ab7e1cf5e027e48bb", // jump
	"c886c00e90da9d7b2dfeb5b4b7c1db7a92514f53e8999d79809f3fe228d48c76", // basket
}

func checkScenarioGolden(t *testing.T, what string, b []byte, golden string) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("SHA-256 of the %s = %s, golden %s", what, got, golden)
	}
}

func TestScenarioGolden(t *testing.T) {
	req := testRequest()
	mustValidate(t, req)
	checkScenarioGolden(t, "whole response", fullBytes(t, req), scenarioGolden)

	start := req.NumGridCells()
	for i, gen := range req.Generators {
		base, pnl, err := EvaluateCells(context.Background(), req, testMarket, start, gen.Scenarios)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(Finalize(req, base, start, pnl))
		if err != nil {
			t.Fatal(err)
		}
		checkScenarioGolden(t, gen.Model+" cells", b, scenarioGeneratorGoldens[i])
		start += gen.Scenarios
	}
}
