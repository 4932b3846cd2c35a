package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

// refDegraded is the reference SniffDegraded must reproduce whenever it
// answers: json.Unmarshal into a one-field struct.
func refDegraded(body []byte) (bool, error) {
	var sniff struct {
		Degraded bool `json:"degraded"`
	}
	err := json.Unmarshal(body, &sniff)
	return sniff.Degraded, err
}

// checkSniffAgainstReference asserts the fast-path contract on one body:
// an answered sniff implies the reference decodes without error to the
// same flag.
func checkSniffAgainstReference(t *testing.T, body []byte) (answered bool) {
	t.Helper()
	got, ok := SniffDegraded(body)
	if !ok {
		return false
	}
	want, err := refDegraded(body)
	if err != nil {
		t.Fatalf("sniff answered %v on a body the reference rejects (%v): %q", got, err, body)
	}
	if got != want {
		t.Fatalf("sniff %v, reference %v: %q", got, want, body)
	}
	return true
}

func TestSniffDegraded(t *testing.T) {
	reply := `{"results":[{"price":1.25},{"price":3,"std_err":0.5}],"method":"closed-form","config":{"seed":7},"engine":"batch-advanced",%s"elapsed_us":0}`
	for _, tc := range []struct {
		body     string
		answered bool
		degraded bool
	}{
		{strings.Replace(reply, "%s", ``, 1), true, false},
		{strings.Replace(reply, "%s", `"degraded":true,`, 1), true, true},
		{strings.Replace(reply, "%s", `"degraded":false,`, 1), true, false},
		{"  {\n\t\"degraded\" :\r true }  ", true, true},
		{`{"degraded":true,"degraded":false}`, true, false},
		{`{"degraded":false,"degraded":true}`, true, true},
		{`{"nested":{"degraded":true}}`, true, false},
		{`{"a":[1,-2.5e-3,true,false,null,"x",{},[]]}`, true, false},
		{`{}`, true, false},

		// Outside the subset: the reference decides.
		{`{"Degraded":true}`, false, false},
		{`{"DEGRADED":false}`, false, false},
		{`{"degraded":null}`, false, false},
		{`{"degraded":"true"}`, false, false},
		{`{"degraded":1}`, false, false},
		{"{\"degr\\" + "u0061ded\":true}", false, false},
		{`{"engine":"a\"b"}`, false, false},
		{"{\"method\":\"cl\xc3\xb6sed\"}", false, false},
		{`null`, false, false},
		{`[{"degraded":true}]`, false, false},
		{`{"degraded":true`, false, false},
		{`{"degraded":truex}`, false, false},
		{`{"a":01}`, false, false},
		{`{"a":1}{}`, false, false},
		{`not json`, false, false},
		{``, false, false},
		{`{"a":` + strings.Repeat(`[`, sniffMaxDepth) + strings.Repeat(`]`, sniffMaxDepth) + `}`, false, false},
	} {
		got, ok := SniffDegraded([]byte(tc.body))
		if ok != tc.answered || (ok && got != tc.degraded) {
			t.Errorf("SniffDegraded(%q) = (%v, %v), want (%v, %v)", tc.body, got, ok, tc.degraded, tc.answered)
		}
		checkSniffAgainstReference(t, []byte(tc.body))
	}
}

// TestSniffDegradedRealReply runs the sniff over an encoder-produced 200
// of a mega-batch size: the shape it exists for must stay on the fast
// path.
func TestSniffDegradedRealReply(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		resp := &PriceResponse{Method: "closed-form", Engine: "batch-advanced", Degraded: degraded, BatchOptions: 1024}
		resp.SizedResults(1024)
		for i := range resp.Results {
			resp.Results[i].Price = float64(i) * 1.0625
		}
		body, ok := AppendPriceResponse(nil, resp)
		if !ok {
			t.Fatal("encode failed")
		}
		if !checkSniffAgainstReference(t, body) {
			t.Fatalf("encoder output left the sniff subset (degraded=%v)", degraded)
		}
	}
}

// FuzzSniffDegraded is the differential invariant of the fast path:
// whenever SniffDegraded answers, json.Unmarshal must accept the body and
// agree on the flag.
func FuzzSniffDegraded(f *testing.F) {
	f.Add([]byte(`{"results":[{"price":1}],"method":"closed-form","config":{},"engine":"batch-advanced","degraded":true,"elapsed_us":0}`))
	f.Add([]byte(`{"results":[],"degraded":false}`))
	f.Add([]byte(`{"Degraded":true}`))
	f.Add([]byte(`{"degraded":null}`))
	f.Add([]byte(`{"x":{"degraded":true},"degraded":false}`))
	f.Add([]byte(`{"a":[1,2.5e3,"s",null,true,{"b":[]}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSniffAgainstReference(t, data)
	})
}
