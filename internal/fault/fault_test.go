package fault

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("42:0.1:refuse,reset,latency")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || spec.Rate != 0.1 || len(spec.Kinds) != 3 {
		t.Fatalf("parsed %+v", spec)
	}
	if got := spec.String(); got != "42:0.1:refuse,reset,latency" {
		t.Errorf("String() = %q", got)
	}
	// '+' separator and duplicate collapse.
	spec, err = ParseSpec("7:1:limp+limp+truncate")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Kinds) != 2 || spec.Kinds[0] != KindLimp || spec.Kinds[1] != KindTruncate {
		t.Fatalf("kinds = %v", spec.Kinds)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"", "42", "42:0.1", "x:0.1:reset", "42:2:reset", "42:-0.1:reset",
		"42:0.1:", "42:0.1:explode", "42:0.1:reset:extra",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted garbage", s)
		}
	}
}

func TestDecideDeterministicAndSeedSensitive(t *testing.T) {
	a, _ := ParseSpec("42:0.3:refuse,reset,truncate,latency,limp")
	b, _ := ParseSpec("42:0.3:refuse,reset,truncate,latency,limp")
	c, _ := ParseSpec("43:0.3:refuse,reset,truncate,latency,limp")
	same, diff := true, false
	for i := uint64(0); i < 4096; i++ {
		if a.Decide(i) != b.Decide(i) {
			same = false
		}
		if a.Decide(i) != c.Decide(i) {
			diff = true
		}
	}
	if !same {
		t.Error("equal specs disagreed on a decision")
	}
	if !diff {
		t.Error("different seeds never disagreed over 4096 decisions")
	}
	if a.Digest(4096) != b.Digest(4096) {
		t.Error("equal specs produced different digests")
	}
	if a.Digest(4096) == c.Digest(4096) {
		t.Error("different seeds produced equal digests")
	}
}

func TestDecideRateIsHonored(t *testing.T) {
	spec, _ := ParseSpec("9:0.1:reset")
	faulted := 0
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if spec.Decide(i) != KindNone {
			faulted++
		}
	}
	frac := float64(faulted) / n
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("fault fraction %.3f far from rate 0.1", frac)
	}
	// Rate 0 and rate 1 are exact.
	zero := &Spec{Seed: 1, Rate: 0, Kinds: []Kind{KindReset}}
	one := &Spec{Seed: 1, Rate: 1, Kinds: []Kind{KindReset}}
	for i := uint64(0); i < 100; i++ {
		if zero.Decide(i) != KindNone {
			t.Fatal("rate 0 faulted an event")
		}
		if one.Decide(i) != KindReset {
			t.Fatal("rate 1 left an event clean")
		}
	}
}

func TestInjectorCountsAndOrder(t *testing.T) {
	spec, _ := ParseSpec("5:1:refuse")
	inj := NewInjector(spec)
	for i := 0; i < 10; i++ {
		if got := inj.NextDecision(); got != KindRefuse {
			t.Fatalf("decision %d = %v", i, got)
		}
	}
	// nil-spec injector is a no-op.
	off := NewInjector(nil)
	if off.NextDecision() != KindNone {
		t.Error("nil-spec injector faulted an event")
	}
}

// chattyServer answers every request with a fixed JSON body over a real
// TCP listener, optionally fault-wrapped.
func chattyServer(t *testing.T, spec *Spec) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := NewListener(l, NewInjector(spec))
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true,"pad":"0123456789012345678901234567890123456789"}`)
	})}
	go func() { _ = srv.Serve(wrapped) }()
	return "http://" + l.Addr().String(), func() { _ = srv.Close() }
}

func getOnce(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	// A fresh client per call: connection reuse would let one decision
	// cover many requests and make the assertions timing-dependent.
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func TestListenerRefuseAndReset(t *testing.T) {
	// Rate 1: every connection faulted; alternating kinds by index.
	spec := &Spec{Seed: 3, Rate: 1, Kinds: []Kind{KindReset}}
	url, stop := chattyServer(t, spec)
	defer stop()
	_, _, err := getOnce(t, url)
	if err == nil {
		t.Fatal("reset-faulted request succeeded")
	}

	spec = &Spec{Seed: 3, Rate: 1, Kinds: []Kind{KindRefuse}}
	url, stop2 := chattyServer(t, spec)
	defer stop2()
	done := make(chan error, 1)
	go func() { _, _, err := getOnce(t, url); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("refused connection yielded a response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("refused connection hung")
	}
}

func TestListenerTruncateBreaksBody(t *testing.T) {
	spec := &Spec{Seed: 3, Rate: 1, Kinds: []Kind{KindTruncate}, TruncateAfter: 16}
	url, stop := chattyServer(t, spec)
	defer stop()
	resp, body, err := getOnce(t, url)
	// Either the read fails outright or the body is cut short of valid
	// JSON — both are detectably corrupt; a clean 200 with the full body
	// would mean the fault never fired.
	if err == nil && resp.StatusCode == 200 && strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("truncated response arrived intact: %q", body)
	}
}

func TestListenerLatencyDelays(t *testing.T) {
	spec := &Spec{Seed: 3, Rate: 1, Kinds: []Kind{KindLatency}, Latency: 120 * time.Millisecond}
	url, stop := chattyServer(t, spec)
	defer stop()
	start := time.Now()
	if _, _, err := getOnce(t, url); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("latency fault elapsed only %v", elapsed)
	}
}

func TestListenerCleanPassThrough(t *testing.T) {
	url, stop := chattyServer(t, &Spec{Seed: 3, Rate: 0, Kinds: []Kind{KindReset}})
	defer stop()
	resp, body, err := getOnce(t, url)
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("clean pass-through failed: %v %v %q", err, resp, body)
	}
}

func TestTransportFaults(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true,"pad":"0123456789012345678901234567890123456789"}`)
	}))
	defer backend.Close()

	cases := []struct {
		kind    Kind
		wantErr bool
	}{
		{KindRefuse, true},
		{KindReset, true},
		{KindTruncate, false}, // arrives, but cut
		{KindLatency, false},
		{KindLimp, false},
	}
	for _, tc := range cases {
		spec := &Spec{Seed: 1, Rate: 1, Kinds: []Kind{tc.kind}, Latency: time.Millisecond, LimpDelay: time.Millisecond, TruncateAfter: 10}
		client := &http.Client{Transport: &Transport{Inj: NewInjector(spec)}}
		resp, err := client.Get(backend.URL)
		if tc.wantErr {
			if err == nil {
				resp.Body.Close()
				t.Errorf("%v: round trip succeeded, want error", tc.kind)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", tc.kind, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if tc.kind == KindTruncate {
			if len(body) > 10 {
				t.Errorf("truncate: body %d bytes survived", len(body))
			}
		} else if !strings.Contains(string(body), `"ok":true`) {
			t.Errorf("%v: body %q", tc.kind, body)
		}
	}
}
