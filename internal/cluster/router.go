// Client-side failover: a Router fans lookups across cluster members,
// steering around unhealthy ones. Three signals demote a backend — a
// transport error (the peer is partitioned or dead; health-probed back in
// after a backoff), an ErrOverloaded answer (honour the shard's Retry-After
// hint, with the server-side jitter already applied, as the backoff), and a
// hedge timeout (the answer is slow; a second backend is raced and the
// first definite answer wins). Service-level errors other than overload
// (ErrUnavailable, ErrSelfLookup) are answers, not failures: every member
// would say the same thing, so they are returned, not retried.
//
// LookupBatch applies the same rules to a whole batch at once against
// members that answer batches (BatchBackend): one member per attempt, one
// hedge timer per batch, and per-key failover only for the keys a member
// shed.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"routetab/internal/serve"
)

// ErrNoBackends reports a lookup with every backend unreachable.
var ErrNoBackends = errors.New("cluster: no reachable backend")

// Backend is one routed-to cluster member. Lookup's error return is a
// transport failure (unreachable peer); service-level failures travel
// inside the Result.
type Backend interface {
	Name() string
	Lookup(src, dst int) (serve.Result, error)
}

// ContextBackend is a Backend whose lookups honour cancellation. When a
// hedged race resolves, the Router cancels the losing attempts' context so
// their goroutines unwind immediately instead of riding out a slow transport
// call — without this, every hedge against a stalled peer parks a goroutine
// for the peer's full timeout.
type ContextBackend interface {
	Backend
	LookupCtx(ctx context.Context, src, dst int) (serve.Result, error)
}

// BatchBackend is a Backend that answers a whole batch in one call
// (serve.Server, wire.Client and httpapi.BatchClient all have this method).
// The error return fails the whole batch at the transport level; per-key
// answers, sheds included, ride in out.
type BatchBackend interface {
	LookupBatch(pairs [][2]int, out []serve.Result) error
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// HedgeAfter is how long the first backend gets before a second is
	// raced (default 1ms; negative disables hedging).
	HedgeAfter time.Duration
	// ProbeAfter is how long a transport-failed backend stays demoted
	// before a lookup probes it again (default 10ms).
	ProbeAfter time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (o *RouterOptions) setDefaults() {
	if o.HedgeAfter == 0 {
		o.HedgeAfter = time.Millisecond
	}
	if o.ProbeAfter <= 0 {
		o.ProbeAfter = 10 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

type backendState struct {
	b Backend
	// downUntil is the wall time before which this backend is skipped
	// (zero = healthy). Set by transport failures and Retry-After hints.
	downUntil time.Time
	served    uint64 // lookups answered by this backend
	failed    uint64 // transport failures observed
}

// Router fans lookups across backends with failover and hedging. Safe for
// concurrent use.
type Router struct {
	opts RouterOptions

	mu       sync.Mutex
	backends []*backendState
	rr       int // rotation cursor for load spreading
}

// NewRouter builds a router over backends (order is the initial preference
// order).
func NewRouter(backends []Backend, opts RouterOptions) *Router {
	opts.setDefaults()
	rt := &Router{opts: opts}
	rt.SetBackends(backends)
	return rt
}

// SetBackends replaces the backend set (topology change: promotion, member
// join/leave). Health state of surviving names is preserved.
func (rt *Router) SetBackends(backends []Backend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := make(map[string]*backendState, len(rt.backends))
	for _, bs := range rt.backends {
		old[bs.b.Name()] = bs
	}
	next := make([]*backendState, 0, len(backends))
	for _, b := range backends {
		if prev, ok := old[b.Name()]; ok {
			prev.b = b
			next = append(next, prev)
			continue
		}
		next = append(next, &backendState{b: b})
	}
	rt.backends = next
	rt.rr = 0
}

// Served returns per-backend answer counts, keyed by backend name.
func (rt *Router) Served() map[string]uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]uint64, len(rt.backends))
	for _, bs := range rt.backends {
		out[bs.b.Name()] = bs.served
	}
	return out
}

// candidate pairs a backend state with the Backend captured under the router
// mutex: lookup goroutines run unlocked, and SetBackends may swap bs.b (a
// promotion rebinding a surviving name) while an attempt is in flight.
type candidate struct {
	bs *backendState
	b  Backend
}

// pick returns candidate backends in try order: ready ones (healthy, or
// demoted with the probe window open — an expired backoff re-enters normal
// rotation so recovered members take traffic again) in round-robin
// rotation, then still-demoted ones as a last resort so a fully demoted
// cluster keeps getting probed rather than failing outright.
func (rt *Router) pick(now time.Time) []candidate {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := len(rt.backends)
	if n == 0 {
		return nil
	}
	start := rt.rr
	rt.rr++
	var ready, demoted []candidate
	for i := 0; i < n; i++ {
		bs := rt.backends[(start+i)%n]
		if bs.downUntil.IsZero() || !now.Before(bs.downUntil) {
			ready = append(ready, candidate{bs: bs, b: bs.b})
		} else {
			demoted = append(demoted, candidate{bs: bs, b: bs.b})
		}
	}
	return append(ready, demoted...)
}

func (rt *Router) noteOK(bs *backendState, answered int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	bs.downUntil = time.Time{}
	bs.served += uint64(answered)
}

func (rt *Router) noteTransportFail(bs *backendState, now time.Time) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	bs.downUntil = now.Add(rt.opts.ProbeAfter)
	bs.failed++
}

func (rt *Router) noteOverloaded(bs *backendState, now time.Time, retryAfter time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if retryAfter <= 0 {
		retryAfter = rt.opts.ProbeAfter
	}
	bs.downUntil = now.Add(retryAfter)
}

type attempt struct {
	bs  *backendState
	res serve.Result
	err error
}

// Lookup answers one next-hop query with failover and hedging. The returned
// error is ErrNoBackends only; service-level failures ride in Result.Err.
func (rt *Router) Lookup(src, dst int) (serve.Result, error) {
	now := rt.opts.Clock()
	order := rt.pick(now)
	if len(order) == 0 {
		return serve.Result{}, ErrNoBackends
	}

	// The buffered channel lets losing attempts complete their send and exit;
	// the context lets ContextBackend losers abandon a stalled transport call
	// the moment a winner returns (cancel runs on every exit path).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan attempt, len(order))
	launch := func(c candidate) {
		go func() {
			var res serve.Result
			var err error
			if cb, ok := c.b.(ContextBackend); ok {
				res, err = cb.LookupCtx(ctx, src, dst)
			} else {
				res, err = c.b.Lookup(src, dst)
			}
			results <- attempt{bs: c.bs, res: res, err: err}
		}()
	}

	next := 0
	launch(order[next])
	next++
	inflight := 1

	var hedge *time.Timer
	var hedgeC <-chan time.Time
	if rt.opts.HedgeAfter > 0 && len(order) > 1 {
		hedge = time.NewTimer(rt.opts.HedgeAfter)
		defer hedge.Stop()
		hedgeC = hedge.C
	}

	var lastOverload serve.Result
	sawOverload := false
	for {
		select {
		case a := <-results:
			inflight--
			now = rt.opts.Clock()
			switch {
			case a.err != nil:
				rt.noteTransportFail(a.bs, now)
			case errors.Is(a.res.Err, serve.ErrOverloaded):
				var oe *serve.OverloadedError
				var retryAfter time.Duration
				if errors.As(a.res.Err, &oe) {
					retryAfter = oe.RetryAfter
				}
				rt.noteOverloaded(a.bs, now, retryAfter)
				lastOverload, sawOverload = a.res, true
			default:
				// A definite answer (including ErrUnavailable/ErrSelfLookup,
				// which every member would repeat) wins.
				rt.noteOK(a.bs, 1)
				return a.res, nil
			}
			// The attempt failed over; try the next candidate immediately.
			if next < len(order) {
				launch(order[next])
				next++
				inflight++
			} else if inflight == 0 {
				if sawOverload {
					return lastOverload, nil
				}
				return serve.Result{}, ErrNoBackends
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(order) {
				launch(order[next])
				next++
				inflight++
			}
		}
	}
}

// Per-key progress of a LookupBatch call.
const (
	keyPending  uint8 = iota // no answer yet
	keyShed                  // out holds an overload answer; another member may still answer
	keyAnswered              // out holds a definite answer
)

// batchAttempt is one batch sent to one member. It carries its own copy of
// the keys and its own answers, so an attempt that loses a hedge, or
// outlives the call, never touches the caller's slices.
type batchAttempt struct {
	c     candidate
	bb    BatchBackend
	keys  []int32 // caller indices, aligned with pairs and out
	pairs [][2]int
	out   []serve.Result
	err   error
}

func (a *batchAttempt) run(done chan<- *batchAttempt) {
	a.err = a.bb.LookupBatch(a.pairs, a.out)
	done <- a
}

// batchCall is one LookupBatch call's working set.
type batchCall struct {
	state []uint8
	// done receives every finished attempt. Its capacity covers every
	// candidate, so an attempt that finishes after the call returned still
	// completes its send and exits; a call that returns with attempts in
	// flight is therefore never pooled.
	done chan *batchAttempt
}

var (
	attemptPool = sync.Pool{New: func() any { return new(batchAttempt) }}
	callPool    = sync.Pool{New: func() any { return new(batchCall) }}
)

// LookupBatch answers a batch with the Lookup rules applied per batch: the
// pending keys go to one member at a time; a transport error fails them all
// over to the next candidate; keys a member shed go to the next candidate
// while its Retry-After demotes it; and one hedge timer covers the batch,
// each key taking the first definite answer. Keys no member could reach get
// Result.Err = ErrNoBackends; the error return reports misuse only. When any
// member lacks the batch method, the batch falls back to one Lookup per key.
func (rt *Router) LookupBatch(pairs [][2]int, out []serve.Result) error {
	if len(pairs) != len(out) {
		return fmt.Errorf("cluster: LookupBatch pairs (%d) and out (%d) length mismatch", len(pairs), len(out))
	}
	if len(pairs) == 0 {
		return nil
	}
	now := rt.opts.Clock()
	order := rt.pick(now)
	for _, c := range order {
		if _, ok := c.b.(BatchBackend); !ok {
			rt.lookupEach(pairs, out)
			return nil
		}
	}
	if len(order) == 0 {
		for i := range out {
			out[i] = serve.Result{Err: ErrNoBackends}
		}
		return nil
	}

	call := callPool.Get().(*batchCall)
	if cap(call.state) < len(pairs) {
		call.state = make([]uint8, len(pairs))
	}
	state := call.state[:len(pairs)]
	for i := range state {
		state[i] = keyPending
	}
	if cap(call.done) < len(order) {
		call.done = make(chan *batchAttempt, len(order))
	}
	hedging := rt.opts.HedgeAfter > 0 && len(order) > 1
	// launch sends every key not yet answered to c. Without hedging the
	// attempt runs inline: its send lands in the buffered channel before
	// the loop below reads it.
	launch := func(c candidate) {
		a := attemptPool.Get().(*batchAttempt)
		a.c, a.bb = c, c.b.(BatchBackend)
		a.keys, a.pairs = a.keys[:0], a.pairs[:0]
		for i, st := range state {
			if st != keyAnswered {
				a.keys = append(a.keys, int32(i))
				a.pairs = append(a.pairs, pairs[i])
			}
		}
		if cap(a.out) < len(a.keys) {
			a.out = make([]serve.Result, len(a.keys))
		}
		a.out = a.out[:len(a.keys)]
		if hedging {
			go a.run(call.done)
		} else {
			a.run(call.done)
		}
	}

	next := 0
	launch(order[next])
	next++
	inflight := 1

	var hedgeC <-chan time.Time
	if hedging {
		hedge := time.NewTimer(rt.opts.HedgeAfter)
		defer hedge.Stop()
		hedgeC = hedge.C
	}

	pending := len(pairs)
	for pending > 0 {
		select {
		case a := <-call.done:
			inflight--
			now = rt.opts.Clock()
			if a.err != nil {
				// The attempt's transport may still hold its buffers: drop
				// them rather than pool them.
				rt.noteTransportFail(a.c.bs, now)
			} else {
				answered, shed := 0, false
				var retryAfter time.Duration
				for j, k := range a.keys {
					if state[k] == keyAnswered {
						continue // an earlier attempt already answered this key
					}
					res := a.out[j]
					out[k] = res
					if errors.Is(res.Err, serve.ErrOverloaded) {
						var oe *serve.OverloadedError
						if errors.As(res.Err, &oe) && oe.RetryAfter > retryAfter {
							retryAfter = oe.RetryAfter
						}
						state[k], shed = keyShed, true
						continue
					}
					// A definite answer (including ErrUnavailable or
					// ErrSelfLookup, which every member would repeat) wins.
					state[k] = keyAnswered
					answered++
				}
				pending -= answered
				if answered > 0 {
					rt.noteOK(a.c.bs, answered)
				}
				if shed {
					// Any shed key demotes the member, for the largest hint.
					rt.noteOverloaded(a.c.bs, now, retryAfter)
				}
				*a = batchAttempt{keys: a.keys, pairs: a.pairs, out: a.out}
				attemptPool.Put(a)
			}
			if pending == 0 {
				break
			}
			// Keys are still open: try the next candidate immediately.
			if next < len(order) {
				launch(order[next])
				next++
				inflight++
			} else if inflight == 0 {
				// Every candidate was tried: a shed key keeps its last
				// overload answer, an unreached key gets ErrNoBackends.
				for k, st := range state {
					if st == keyPending {
						out[k] = serve.Result{Err: ErrNoBackends}
					}
				}
				pending = 0
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(order) {
				launch(order[next])
				next++
				inflight++
			}
		}
	}
	if inflight == 0 {
		callPool.Put(call)
	}
	return nil
}

// lookupEach answers a batch one Lookup at a time, for members that cannot
// take a batch.
func (rt *Router) lookupEach(pairs [][2]int, out []serve.Result) {
	for i, p := range pairs {
		res, err := rt.Lookup(p[0], p[1])
		if err != nil {
			res = serve.Result{Err: err}
		}
		out[i] = res
	}
}
