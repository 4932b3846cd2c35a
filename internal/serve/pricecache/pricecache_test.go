package pricecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testKey(i int) Key {
	return Digest("closed-form", 0.05, 0.2, Params{BinomialSteps: 64}, []Contract{
		{Type: "call", Spot: float64(100 + i), Strike: 100, Expiry: 1},
	})
}

func computeBody(body string) func(context.Context) ([]byte, bool, error) {
	return func(context.Context) ([]byte, bool, error) { return []byte(body), true, nil }
}

func TestHitAfterMiss(t *testing.T) {
	c := New(1<<20, 0)
	key := testKey(0)
	var calls atomic.Int64
	compute := func(context.Context) ([]byte, bool, error) {
		calls.Add(1)
		return []byte(`{"px":1}`), true, nil
	}
	b1, o1, err := c.Do(context.Background(), key, compute)
	if err != nil || o1 != Miss {
		t.Fatalf("first Do: outcome=%v err=%v", o1, err)
	}
	b2, o2, err := c.Do(context.Background(), key, compute)
	if err != nil || o2 != Hit {
		t.Fatalf("second Do: outcome=%v err=%v", o2, err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("hit body %q differs from miss body %q", b2, b1)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreFalseNotCachedNotShared(t *testing.T) {
	c := New(1<<20, 0)
	key := testKey(0)
	uncacheable := func(context.Context) ([]byte, bool, error) { return []byte("rejected"), false, nil }
	b, o, err := c.Do(context.Background(), key, uncacheable)
	if err != nil || o != Miss || string(b) != "rejected" {
		t.Fatalf("Do = %q %v %v", b, o, err)
	}
	if st := c.Snapshot(); st.Entries != 0 || st.Inserts != 0 {
		t.Fatalf("uncacheable result was stored: %+v", st)
	}
	// The next call must recompute.
	b, o, err = c.Do(context.Background(), key, computeBody("fresh"))
	if err != nil || o != Miss || string(b) != "fresh" {
		t.Fatalf("recompute = %q %v %v", b, o, err)
	}
}

// TestSingleflightCollapse: N identical concurrent requests, one slow
// leader — exactly one compute, everyone gets the same bytes.
func TestSingleflightCollapse(t *testing.T) {
	c := New(1<<20, 0)
	key := testKey(0)
	const waiters = 8

	leaderIn := make(chan struct{}) // closed once the leader is computing
	leaderGo := make(chan struct{}) // closed to let the leader finish
	var calls atomic.Int64
	compute := func(context.Context) ([]byte, bool, error) {
		calls.Add(1)
		close(leaderIn)
		<-leaderGo
		return []byte("shared"), true, nil
	}

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters+1)
	bodies := make([][]byte, waiters+1)
	errs := make([]error, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		bodies[0], outcomes[0], errs[0] = c.Do(context.Background(), key, compute)
	}()
	<-leaderIn
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], outcomes[i], errs[i] = c.Do(context.Background(), key, compute)
		}(i)
	}
	// Give waiters a moment to park on the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(leaderGo)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	var collapsed, hit int
	for i, o := range outcomes {
		if errs[i] != nil {
			t.Fatalf("caller %d error: %v", i, errs[i])
		}
		if string(bodies[i]) != "shared" {
			t.Fatalf("caller %d body = %q", i, bodies[i])
		}
		switch o {
		case Collapsed:
			collapsed++
		case Hit:
			hit++
		}
	}
	if collapsed == 0 {
		t.Fatalf("no caller collapsed onto the flight (outcomes %v)", outcomes)
	}
	if got := c.Snapshot().Collapsed; got != uint64(collapsed) {
		t.Fatalf("collapsed counter = %d, want %d", got, collapsed)
	}
}

// TestWaiterHonorsOwnDeadline: the leader computes forever; a waiter with
// a short deadline must fail with its own ctx error, promptly.
func TestWaiterHonorsOwnDeadline(t *testing.T) {
	c := New(1<<20, 0)
	key := testKey(0)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	defer close(leaderGo)
	go c.Do(context.Background(), key, func(context.Context) ([]byte, bool, error) {
		close(leaderIn)
		<-leaderGo
		return []byte("late"), true, nil
	})
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Do(ctx, key, computeBody("unused"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("waiter hung %v on leader's flight", elapsed)
	}
}

// TestCancelledLeaderWaiterRedispatches: the leader's ctx is cancelled
// mid-compute; a live waiter must re-dispatch (becoming the new leader)
// and succeed under its own ctx — never hang, never inherit the
// cancellation.
func TestCancelledLeaderWaiterRedispatches(t *testing.T) {
	c := New(1<<20, 0)
	key := testKey(0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, key, func(ctx context.Context) ([]byte, bool, error) {
			close(leaderIn)
			<-ctx.Done()
			return nil, false, ctx.Err()
		})
		leaderDone <- err
	}()
	<-leaderIn

	waiterDone := make(chan struct{})
	var waiterBody []byte
	var waiterOutcome Outcome
	var waiterErr error
	go func() {
		defer close(waiterDone)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		waiterBody, waiterOutcome, waiterErr = c.Do(ctx, key, computeBody("recomputed"))
	}()

	time.Sleep(20 * time.Millisecond) // let the waiter park on the flight
	cancelLeader()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after leader cancellation")
	}
	if waiterErr != nil {
		t.Fatalf("waiter err = %v, want nil (re-dispatch)", waiterErr)
	}
	if waiterOutcome != Miss || string(waiterBody) != "recomputed" {
		t.Fatalf("waiter got %v %q, want Miss \"recomputed\"", waiterOutcome, waiterBody)
	}
}

// TestReinsertAfterEviction: once a key's entry is gone (evicted by byte
// pressure; entries never expire), the next Do leads a fresh computation;
// a waiter parked on that flight gets the new leader's result, and the
// re-inserted entry is a hit.
func TestReinsertAfterEviction(t *testing.T) {
	body := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 600) }
	c := New(600+entryOverhead, 0) // budget fits exactly one entry
	keyA, keyB := testKey(0), testKey(1)
	c.Do(context.Background(), keyA, func(context.Context) ([]byte, bool, error) { return body('1'), true, nil })
	c.Do(context.Background(), keyB, func(context.Context) ([]byte, bool, error) { return body('b'), true, nil })
	if st := c.Snapshot(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after pressure: %+v", st)
	}

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, o, err := c.Do(context.Background(), keyA, func(context.Context) ([]byte, bool, error) {
			close(leaderIn)
			<-leaderGo
			return body('2'), true, nil
		})
		if o != Miss || err != nil {
			t.Errorf("leader outcome %v err %v", o, err)
		}
	}()
	<-leaderIn

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		b, o, err := c.Do(context.Background(), keyA, computeBody("unused"))
		if err != nil || o != Collapsed || !bytes.Equal(b, body('2')) {
			t.Errorf("waiter got %.8q %v %v, want the leader's body Collapsed nil", b, o, err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(leaderGo)
	<-leaderDone
	<-waiterDone

	if b, o, _ := c.Do(context.Background(), keyA, computeBody("v3")); o != Hit || !bytes.Equal(b, body('2')) {
		t.Fatalf("re-inserted entry: outcome %v body %.8q, want Hit with the leader's body", o, b)
	}
}

// TestEvictionOfCollapsedEntry: the entry a flight just inserted is
// evicted by byte pressure before a parked waiter wakes — the waiter is
// still served from the flight (the flight result outlives the store).
func TestEvictionOfCollapsedEntry(t *testing.T) {
	big := make([]byte, 600)
	c := New(int64(len(big))+entryOverhead, 0) // budget fits exactly one big entry

	keyA, keyB := testKey(0), testKey(1)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	go c.Do(context.Background(), keyA, func(context.Context) ([]byte, bool, error) {
		close(leaderIn)
		<-leaderGo
		return big, true, nil
	})
	<-leaderIn

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		b, o, err := c.Do(context.Background(), keyA, computeBody("unused"))
		if err != nil || o != Collapsed || len(b) != len(big) {
			t.Errorf("waiter got len=%d %v %v, want collapsed big body", len(b), o, err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(leaderGo)
	<-waiterDone

	// Evict keyA by inserting keyB under the same tight budget.
	if _, o, _ := c.Do(context.Background(), keyB, func(context.Context) ([]byte, bool, error) {
		return big, true, nil
	}); o != Miss {
		t.Fatalf("keyB outcome %v", o)
	}
	st := c.Snapshot()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after pressure: %+v", st)
	}
	if _, o, _ := c.Do(context.Background(), keyA, computeBody("back")); o != Miss {
		t.Fatalf("evicted keyA outcome %v, want Miss", o)
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	c := New(256, 0)
	body := make([]byte, 512)
	b, o, err := c.Do(context.Background(), testKey(0), func(context.Context) ([]byte, bool, error) {
		return body, true, nil
	})
	if err != nil || o != Miss || len(b) != 512 {
		t.Fatalf("oversize Do = len=%d %v %v", len(b), o, err)
	}
	st := c.Snapshot()
	if st.Rejected != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize body entered store: %+v", st)
	}
}

func TestLRUOrder(t *testing.T) {
	// Budget for exactly two entries of this size.
	body := []byte("0123456789")
	size := int64(len(body)) + entryOverhead
	c := New(2*size, 0)
	k0, k1, k2 := testKey(0), testKey(1), testKey(2)
	mk := func(k Key) { c.Do(context.Background(), k, computeBody(string(body))) }
	mk(k0)
	mk(k1)
	// Touch k0 so k1 is least recently used.
	if _, o, _ := c.Do(context.Background(), k0, computeBody("x")); o != Hit {
		t.Fatal("expected hit on k0")
	}
	mk(k2) // evicts k1
	if _, o, _ := c.Do(context.Background(), k0, computeBody("x")); o != Hit {
		t.Fatal("k0 should have survived (recently used)")
	}
	if _, o, _ := c.Do(context.Background(), k1, computeBody("x")); o != Miss {
		t.Fatal("k1 should have been evicted")
	}
}

func TestOutcomeString(t *testing.T) {
	for _, tc := range []struct {
		o    Outcome
		want string
	}{{Miss, "miss"}, {Hit, "hit"}, {Collapsed, "collapsed"}} {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.o, got, tc.want)
		}
	}
}

// TestConcurrentStress hammers a small key space from many goroutines
// under -race: correctness bar is no deadlock, no panic, every successful
// call returns the body its key maps to.
func TestConcurrentStress(t *testing.T) {
	c := New(4096, 10*time.Millisecond)
	const keys = 8
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % keys
				want := fmt.Sprintf("body-%d", k)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				b, _, err := c.Do(ctx, testKey(k), func(context.Context) ([]byte, bool, error) {
					return []byte(want), k%3 != 0, nil // every third key uncacheable
				})
				cancel()
				if err == nil && string(b) != want {
					t.Errorf("key %d returned %q", k, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDigestCanonicalization(t *testing.T) {
	p := Params{BinomialSteps: 64, GridPoints: 100, TimeSteps: 50}
	base := []Contract{{Type: "call", Style: "european", Spot: 100, Strike: 95, Expiry: 0.5}}
	spelledOut := Digest("closed-form", 0.05, 0.2, p, base)
	blank := Digest("closed-form", 0.05, 0.2, p, []Contract{{Spot: 100, Strike: 95, Expiry: 0.5}})
	if spelledOut != blank {
		t.Fatal("\"call\"/\"european\" and \"\" must digest identically")
	}

	distinct := []Key{spelledOut}
	add := func(name string, k Key) {
		for _, prev := range distinct {
			if k == prev {
				t.Fatalf("%s collided with a prior digest", name)
			}
		}
		distinct = append(distinct, k)
	}
	add("put", Digest("closed-form", 0.05, 0.2, p, []Contract{{Type: "put", Spot: 100, Strike: 95, Expiry: 0.5}}))
	add("american", Digest("closed-form", 0.05, 0.2, p, []Contract{{Style: "american", Spot: 100, Strike: 95, Expiry: 0.5}}))
	add("spot", Digest("closed-form", 0.05, 0.2, p, []Contract{{Spot: 101, Strike: 95, Expiry: 0.5}}))
	add("rate", Digest("closed-form", 0.06, 0.2, p, base))
	add("vol", Digest("closed-form", 0.05, 0.21, p, base))
	add("method", Digest("binomial", 0.05, 0.2, p, base))
	add("steps", Digest("closed-form", 0.05, 0.2, Params{BinomialSteps: 65, GridPoints: 100, TimeSteps: 50}, base))
	add("seed", Digest("closed-form", 0.05, 0.2, Params{BinomialSteps: 64, GridPoints: 100, TimeSteps: 50, Seed: 1}, base))
	add("batch2", Digest("closed-form", 0.05, 0.2, p, append(append([]Contract{}, base...), base...)))
	add("empty", Digest("closed-form", 0.05, 0.2, p, nil))

	// Order is significant: results align with request order.
	a := Contract{Spot: 100, Strike: 95, Expiry: 0.5}
	b := Contract{Spot: 110, Strike: 105, Expiry: 1.5}
	if Digest("m", 0, 0, p, []Contract{a, b}) == Digest("m", 0, 0, p, []Contract{b, a}) {
		t.Fatal("permuted batches must digest differently")
	}

	// Prefix-freedom: content shifted across the method/contract boundary
	// must not collide.
	if Digest("ab", 0, 0, Params{}, nil) == Digest("a", 0, 0, Params{}, nil) {
		t.Fatal("method length must be significant")
	}
}
