package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routetab/internal/serve"
)

// fakeBackend is a scriptable cluster member for router tests.
type fakeBackend struct {
	name string

	mu        sync.Mutex
	transport error         // non-nil: every lookup fails at transport level
	result    serve.Result  // answer returned otherwise
	delay     time.Duration // service time before answering
	calls     atomic.Uint64
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Lookup(src, dst int) (serve.Result, error) {
	f.calls.Add(1)
	f.mu.Lock()
	terr, res, delay := f.transport, f.result, f.delay
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if terr != nil {
		return serve.Result{}, terr
	}
	return res, nil
}

func (f *fakeBackend) set(terr error, res serve.Result, delay time.Duration) {
	f.mu.Lock()
	f.transport, f.result, f.delay = terr, res, delay
	f.mu.Unlock()
}

var errConnRefused = errors.New("router_test: connection refused")

func okResult(next int) serve.Result { return serve.Result{Next: next, Dist: 2, NextDist: 1} }

func TestRouterFailsOverOnTransportError(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.set(errConnRefused, serve.Result{}, 0)
	b.set(nil, okResult(7), 0)
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1, ProbeAfter: time.Hour})

	for i := 0; i < 8; i++ {
		res, err := rt.Lookup(1, 9)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || res.Next != 7 {
			t.Fatalf("lookup %d: %+v", i, res)
		}
	}
	// After the first failure, a is demoted for ProbeAfter (an hour): all
	// later lookups must go straight to b.
	if got := a.calls.Load(); got != 1 {
		t.Fatalf("demoted backend probed %d times, want 1", got)
	}
	served := rt.Served()
	if served["b"] != 8 || served["a"] != 0 {
		t.Fatalf("served = %v", served)
	}
}

func TestRouterProbesDemotedBackendAfterWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.set(errConnRefused, serve.Result{}, 0)
	b.set(nil, okResult(3), 0)
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1, ProbeAfter: 10 * time.Millisecond, Clock: clock})

	if _, err := rt.Lookup(1, 5); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() != 1 {
		t.Fatalf("a called %d times", a.calls.Load())
	}

	// a recovers; before the probe window opens it must not be retried.
	a.set(nil, okResult(4), 0)
	if _, err := rt.Lookup(1, 5); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() != 1 {
		t.Fatal("demoted backend probed inside the backoff window")
	}

	// Advance past the window: a is probed, answers, and is healthy again.
	now = now.Add(20 * time.Millisecond)
	sawA := false
	for i := 0; i < 8 && !sawA; i++ {
		res, err := rt.Lookup(1, 5)
		if err != nil || res.Err != nil {
			t.Fatalf("lookup: %+v %v", res, err)
		}
		sawA = rt.Served()["a"] > 0
	}
	if !sawA {
		t.Fatal("recovered backend never served after probe window opened")
	}
}

func TestRouterHonoursRetryAfter(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.set(nil, serve.Result{Err: &serve.OverloadedError{Shard: 0, RetryAfter: 25 * time.Millisecond}}, 0)
	b.set(nil, okResult(2), 0)
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1, ProbeAfter: time.Millisecond, Clock: clock})

	res, err := rt.Lookup(1, 5)
	if err != nil || res.Err != nil {
		t.Fatalf("overloaded backend not failed over: %+v %v", res, err)
	}
	aCalls := a.calls.Load()

	// Within RetryAfter the shedding backend is skipped even though
	// ProbeAfter (1ms) has passed — the hint wins.
	now = now.Add(5 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if _, err := rt.Lookup(1, 5); err != nil {
			t.Fatal(err)
		}
	}
	if a.calls.Load() != aCalls {
		t.Fatal("backend retried inside its Retry-After window")
	}

	// Past the hint it gets traffic again.
	a.set(nil, okResult(6), 0)
	now = now.Add(30 * time.Millisecond)
	sawA := false
	for i := 0; i < 8 && !sawA; i++ {
		if _, err := rt.Lookup(1, 5); err != nil {
			t.Fatal(err)
		}
		sawA = rt.Served()["a"] > 0
	}
	if !sawA {
		t.Fatal("backend never recovered after Retry-After elapsed")
	}
}

func TestRouterAllBackendsDown(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.set(errConnRefused, serve.Result{}, 0)
	b.set(errConnRefused, serve.Result{}, 0)
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1})
	if _, err := rt.Lookup(1, 5); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("want ErrNoBackends, got %v", err)
	}
	// All overloaded: the overload answer (with its hint) is surfaced, not
	// ErrNoBackends — the caller can back off and retry.
	a.set(nil, serve.Result{Err: &serve.OverloadedError{RetryAfter: time.Millisecond}}, 0)
	b.set(nil, serve.Result{Err: &serve.OverloadedError{RetryAfter: time.Millisecond}}, 0)
	res, err := rt.Lookup(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, serve.ErrOverloaded) {
		t.Fatalf("want overload answer, got %+v", res)
	}
}

func TestRouterHedgesSlowBackend(t *testing.T) {
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.set(nil, okResult(1), 200*time.Millisecond) // pathologically slow
	b.set(nil, okResult(2), 0)
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: time.Millisecond})

	start := time.Now()
	res, err := rt.Lookup(1, 5)
	if err != nil || res.Err != nil {
		t.Fatalf("hedged lookup: %+v %v", res, err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("hedge did not race the slow backend: %v", elapsed)
	}
	if res.Next != 2 {
		t.Fatalf("expected the hedge's answer, got %+v", res)
	}
}

// ctxBackend is a ContextBackend whose lookups, when stalled, park until the
// router cancels the hedged race — the shape of a wedged peer behind a
// cancellable transport.
type ctxBackend struct {
	fakeBackend
	stall atomic.Bool
}

func (c *ctxBackend) LookupCtx(ctx context.Context, src, dst int) (serve.Result, error) {
	c.calls.Add(1)
	if c.stall.Load() {
		<-ctx.Done()
		return serve.Result{}, ctx.Err()
	}
	c.mu.Lock()
	res := c.result
	c.mu.Unlock()
	return res, nil
}

// TestRouterReapsLosingHedge: when a hedge wins, the losing attempt's
// goroutine must be cancelled and reaped, not left parked inside the stalled
// backend for its full timeout. Regression test for goroutine pile-up under a
// wedged peer — the suite runs it under -race.
func TestRouterReapsLosingHedge(t *testing.T) {
	slow := &ctxBackend{fakeBackend: fakeBackend{name: "slow"}}
	slow.stall.Store(true)
	fast := &fakeBackend{name: "fast"}
	fast.set(nil, okResult(2), 0)
	rt := NewRouter([]Backend{slow, fast}, RouterOptions{HedgeAfter: 100 * time.Microsecond})

	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		res, err := rt.Lookup(1, 5)
		if err != nil || res.Err != nil || res.Next != 2 {
			t.Fatalf("lookup %d: %+v %v", i, res, err)
		}
	}
	if slow.calls.Load() == 0 {
		t.Fatal("stalled backend never raced — the hedge path was not exercised")
	}
	// Every loser unblocks on the winner's cancel; give the scheduler a
	// moment to reap them, then require the count back at baseline (small
	// slack for runtime housekeeping goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before hedged lookups, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRouterSetBackendsPreservesHealth(t *testing.T) {
	now := time.Unix(3000, 0)
	clock := func() time.Time { return now }
	a := &fakeBackend{name: "a"}
	b := &fakeBackend{name: "b"}
	a.set(errConnRefused, serve.Result{}, 0)
	b.set(nil, okResult(2), 0)
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1, ProbeAfter: time.Hour, Clock: clock})
	if _, err := rt.Lookup(1, 5); err != nil {
		t.Fatal(err)
	}
	if a.calls.Load() != 1 {
		t.Fatal("setup: a not demoted")
	}

	// Reconfigure (promotion): a's demotion survives, c joins healthy.
	c := &fakeBackend{name: "c"}
	c.set(nil, okResult(3), 0)
	rt.SetBackends([]Backend{a, b, c})
	for i := 0; i < 6; i++ {
		if _, err := rt.Lookup(1, 5); err != nil {
			t.Fatal(err)
		}
	}
	if a.calls.Load() != 1 {
		t.Fatal("demotion lost across SetBackends")
	}
	served := rt.Served()
	if served["b"] == 0 || served["c"] == 0 {
		t.Fatalf("round robin skipped a healthy backend: %v", served)
	}
}

// batchBackend is a scriptable member with the batch method: answer decides
// each key's result, and every call is counted.
type batchBackend struct {
	name      string
	transport error
	delay     time.Duration
	answer    func(src, dst int) serve.Result
	// poison, if set, is written over every answer after delay — the
	// shape of a loser whose late writes must never reach the caller.
	poison  *serve.Result
	done    chan struct{} // closed when a delayed call returns
	batches atomic.Uint64
	keys    atomic.Uint64
}

func (f *batchBackend) Name() string { return f.name }

func (f *batchBackend) Lookup(src, dst int) (serve.Result, error) {
	var out [1]serve.Result
	err := f.LookupBatch([][2]int{{src, dst}}, out[:])
	return out[0], err
}

func (f *batchBackend) LookupBatch(pairs [][2]int, out []serve.Result) error {
	f.batches.Add(1)
	f.keys.Add(uint64(len(pairs)))
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.transport != nil {
		return f.transport
	}
	for i, p := range pairs {
		out[i] = f.answer(p[0], p[1])
		if f.poison != nil {
			out[i] = *f.poison
		}
	}
	if f.done != nil {
		close(f.done)
	}
	return nil
}

// answerNext answers every key with next hop dst+offset.
func answerNext(offset int) func(src, dst int) serve.Result {
	return func(_, dst int) serve.Result { return okResult(dst + offset) }
}

func testPairs(n int) [][2]int {
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{1, i + 2}
	}
	return pairs
}

func TestRouterBatchFailsOverOnTransportError(t *testing.T) {
	a := &batchBackend{name: "a", transport: errConnRefused}
	b := &batchBackend{name: "b", answer: answerNext(100)}
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1, ProbeAfter: time.Hour})

	pairs := testPairs(16)
	for round := 0; round < 4; round++ {
		out := make([]serve.Result, len(pairs))
		if err := rt.LookupBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			if res.Err != nil || res.Next != pairs[i][1]+100 {
				t.Fatalf("round %d key %d: %+v", round, i, res)
			}
		}
	}
	// One failed batch demotes a for an hour: the whole batch failed over
	// once, and every later batch went straight to b.
	if got := a.batches.Load(); got != 1 {
		t.Fatalf("demoted backend tried %d times, want 1", got)
	}
	if got := b.batches.Load(); got != 4 {
		t.Fatalf("b took %d batches, want 4 (one per call)", got)
	}
	if served := rt.Served(); served["b"] != 64 || served["a"] != 0 {
		t.Fatalf("served = %v", served)
	}

	// Every member down: each key reports ErrNoBackends.
	b.transport = errConnRefused
	out := make([]serve.Result, len(pairs))
	if err := rt.LookupBatch(pairs, out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if !errors.Is(res.Err, ErrNoBackends) {
			t.Fatalf("key %d with every member down: %+v", i, res)
		}
	}
}

func TestRouterBatchReroutesShedKeys(t *testing.T) {
	now := time.Unix(4000, 0)
	clock := func() time.Time { return now }
	shed := serve.Result{Err: &serve.OverloadedError{Shard: 1, RetryAfter: 25 * time.Millisecond}}
	// a sheds every odd destination, with a shorter hint on dst 3 — the
	// member's demotion honours the largest hint in the batch.
	a := &batchBackend{name: "a", answer: func(src, dst int) serve.Result {
		switch {
		case dst == 3:
			return serve.Result{Err: &serve.OverloadedError{RetryAfter: time.Millisecond}}
		case dst%2 == 1:
			return shed
		}
		return okResult(dst + 10)
	}}
	b := &batchBackend{name: "b", answer: answerNext(20)}
	rt := NewRouter([]Backend{a, b}, RouterOptions{HedgeAfter: -1, ProbeAfter: time.Millisecond, Clock: clock})

	pairs := testPairs(8) // dst 2..9
	out := make([]serve.Result, len(pairs))
	if err := rt.LookupBatch(pairs, out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		dst := pairs[i][1]
		want := dst + 10
		if dst%2 == 1 {
			want = dst + 20 // shed by a, re-sent to b
		}
		if res.Err != nil || res.Next != want {
			t.Fatalf("key %d (dst %d): %+v, want next %d", i, dst, res, want)
		}
	}
	if got := b.keys.Load(); got != 4 {
		t.Fatalf("b got %d keys, want only the 4 shed ones", got)
	}

	// Inside the 25ms hint a is skipped even though ProbeAfter (1ms) and
	// the smaller 1ms hint have passed.
	now = now.Add(5 * time.Millisecond)
	aBatches := a.batches.Load()
	for i := 0; i < 4; i++ {
		if err := rt.LookupBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
	}
	if a.batches.Load() != aBatches {
		t.Fatal("backend retried inside its Retry-After window")
	}

	// Past the hint it takes traffic again.
	now = now.Add(30 * time.Millisecond)
	a.answer = answerNext(10)
	for i := 0; i < 4; i++ {
		if err := rt.LookupBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
	}
	if a.batches.Load() == aBatches {
		t.Fatal("backend never recovered after Retry-After elapsed")
	}

	// Every member shedding: each key keeps its overload answer.
	a.answer = func(int, int) serve.Result { return shed }
	b.answer = a.answer
	now = now.Add(time.Hour)
	if err := rt.LookupBatch(pairs, out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if !errors.Is(res.Err, serve.ErrOverloaded) {
			t.Fatalf("key %d with every member shedding: %+v", i, res)
		}
	}
}

// TestRouterBatchHedgeLoserNeverWritesOut: a slow member is hedged and
// answers every key with a poisoned result. When the fast member answers
// everything, the slow member's late writes must land in its attempt's own
// scratch, never in the caller's out — under -race, such a write would also
// be reported as a race with the reads below. When the fast member sheds
// the odd destinations, the slow member's answers decide those keys only:
// keys the fast member already answered keep its answers.
func TestRouterBatchHedgeLoserNeverWritesOut(t *testing.T) {
	poison := serve.Result{Next: -7}
	for _, shedOdd := range []bool{false, true} {
		hedged := false
		for round := 0; round < 8 && !hedged; round++ {
			slow := &batchBackend{name: "slow", delay: 50 * time.Millisecond, answer: answerNext(1),
				poison: &poison, done: make(chan struct{})}
			fast := &batchBackend{name: "fast", answer: func(_, dst int) serve.Result {
				if shedOdd && dst%2 == 1 {
					return serve.Result{Err: &serve.OverloadedError{}}
				}
				return okResult(dst + 2)
			}}
			rt := NewRouter([]Backend{slow, fast}, RouterOptions{HedgeAfter: 100 * time.Microsecond})

			pairs := testPairs(32)
			out := make([]serve.Result, len(pairs))
			if err := rt.LookupBatch(pairs, out); err != nil {
				t.Fatal(err)
			}
			if slow.batches.Load() == 0 {
				continue // the rotation started on the fast member: no hedge
			}
			hedged = true
			<-slow.done // the loser has written everything it ever will
			for i, res := range out {
				want := pairs[i][1] + 2
				if shedOdd && pairs[i][1]%2 == 1 {
					want = poison.Next
				}
				if res.Err != nil || res.Next != want {
					t.Fatalf("shedOdd=%v key %d: %+v, want next %d", shedOdd, i, res, want)
				}
			}
		}
		if !hedged {
			t.Fatalf("shedOdd=%v: the slow member was never tried first", shedOdd)
		}
	}
}

// hiddenBatch wraps a member in a Backend that hides its batch method, as a
// counting wrapper that embeds only Backend does.
type hiddenBatch struct {
	Backend
	calls *atomic.Uint64
}

func (h hiddenBatch) Lookup(src, dst int) (serve.Result, error) {
	h.calls.Add(1)
	return h.Backend.Lookup(src, dst)
}

func TestRouterBatchFallsBackPerKey(t *testing.T) {
	var calls atomic.Uint64
	inner := &batchBackend{name: "a", answer: answerNext(5)}
	b := &batchBackend{name: "b", answer: answerNext(5)}
	// One member without the batch method sends the whole batch through
	// the per-key loop.
	rt := NewRouter([]Backend{hiddenBatch{Backend: inner, calls: &calls}, b}, RouterOptions{HedgeAfter: -1})

	pairs := testPairs(10)
	out := make([]serve.Result, len(pairs))
	if err := rt.LookupBatch(pairs, out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Err != nil || res.Next != pairs[i][1]+5 {
			t.Fatalf("key %d: %+v", i, res)
		}
	}
	if got := calls.Load() + b.batches.Load(); got != uint64(len(pairs)) {
		t.Fatalf("%d per-key calls, want %d", got, len(pairs))
	}
	if got := b.keys.Load(); got != b.batches.Load() {
		t.Fatalf("b answered %d keys in %d calls: the batch was not split per key", got, b.batches.Load())
	}
	if err := rt.LookupBatch(pairs, out[:1]); err == nil {
		t.Fatal("length mismatch not reported")
	}
}
