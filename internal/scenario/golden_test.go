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
// only these hashes notice when a shared kernel (mathx.Exp, mathx.Log,
// mathx.Erf, the grid's closed form) moves the served scenarios. They
// hold on amd64 with and without FMA (GODEBUG=cpu.fma=off) and on 386:
// the generators take e^x from mathx.Exp.
const scenarioGolden = "b011283837ffb097b1a64daa514ab09c618e3cec251f707e5f4355b9c011cda5"

var scenarioGeneratorGoldens = [...]string{
	"699365e83d34f11c519c37d23933c0604666fbb30a5f6cdad44a5bb70c7600c7", // heston
	"fc3e07a86ef0563c7d38b672f9b8f5e4e85f1803242d4aea49a9ca94ba03f37b", // jump
	"028e4f7c6c5d4fa7173121866ec1cdeeaa5d613b71ee8ae75fdba94edb882964", // basket
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
