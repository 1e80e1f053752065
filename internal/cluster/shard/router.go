// The scatter-gather front of a partitioned cluster: a shard.Router owns the
// current shard map and one failover cluster.Router per group, fans batch
// lookups out by source shard, and degrades honestly — a shard that cannot
// answer after bounded retries yields ErrShardUnavailable for its keys while
// every other shard's answers stand. Group-level failover (hedging, member
// demotion, promotion) stays inside cluster.Router; this layer adds the
// placement decision, per-shard circuit breakers, jittered retry backoff,
// and the dual-read handoff window a live split needs.
package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"routetab/internal/breaker"
	"routetab/internal/cluster"
	"routetab/internal/serve"
)

// ErrShardUnavailable reports that the shard owning a key could not answer
// within the retry budget. It rides in Result.Err per key: a batch with one
// dead shard still returns every other shard's answers.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// RouterOptions configures the scatter-gather front.
type RouterOptions struct {
	// Retries is how many additional attempts a failed shard lookup gets
	// before the key degrades to ErrShardUnavailable (default 2; negative
	// disables retries).
	Retries int
	// RetryBase is the first retry's backoff; it doubles per retry with
	// ±25% jitter (default 200µs).
	RetryBase time.Duration
	// BreakerThreshold is how many consecutive shard-level failures open
	// that shard's breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects lookups before
	// admitting a single half-open probe (default 10ms).
	BreakerCooldown time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Seed fixes the jitter source (0 = seeded from 1).
	Seed int64
}

func (o *RouterOptions) setDefaults() {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 200 * time.Microsecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// GroupStats is one shard's serving record as the router saw it.
type GroupStats struct {
	Served uint64 `json:"served"`
	Failed uint64 `json:"failed"`
}

// Availability is served/(served+failed), 1 for an idle shard.
func (s GroupStats) Availability() float64 {
	if s.Served+s.Failed == 0 {
		return 1
	}
	return float64(s.Served) / float64(s.Served+s.Failed)
}

// Router is the scatter-gather front. Safe for concurrent use.
type Router struct {
	opts RouterOptions

	mu      sync.Mutex
	smap    *Map
	groups  map[int]*cluster.Router
	breaker map[int]*breaker.Breaker
	stats   map[int]*GroupStats
	rng     *rand.Rand
	// handoffTo/handoffFrom describe the dual-read window of a live split:
	// while active, keys the map sends to handoffTo may fall back to
	// handoffFrom, which held them before the cutover.
	handoffActive    bool
	handoffTo        int
	handoffFrom      int
	rebalanceCurrent bool
}

// NewRouter builds the front over an initial map and its group routers.
// Every group in the map must have a router.
func NewRouter(m *Map, groups map[int]*cluster.Router, opts RouterOptions) (*Router, error) {
	opts.setDefaults()
	if m == nil {
		return nil, fmt.Errorf("%w: nil map", ErrBadMap)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	r := &Router{
		opts:    opts,
		smap:    m,
		groups:  make(map[int]*cluster.Router, len(groups)),
		breaker: make(map[int]*breaker.Breaker),
		stats:   make(map[int]*GroupStats),
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
	for id, rt := range groups {
		r.groups[id] = rt
	}
	for g := 0; g < m.Groups; g++ {
		if r.groups[g] == nil {
			return nil, fmt.Errorf("shard: map names group %d but no router was given", g)
		}
	}
	return r, nil
}

// Map returns the placement currently routed by.
func (r *Router) Map() *Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.smap
}

// SetMap adopts a newer placement; an older or equal epoch is ignored (maps
// may arrive out of order during a rebalance).
func (r *Router) SetMap(m *Map) error {
	if m == nil {
		return fmt.Errorf("%w: nil map", ErrBadMap)
	}
	if err := m.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Epoch <= r.smap.Epoch {
		return nil
	}
	r.smap = m
	return nil
}

// SetGroup installs (or replaces) a group's failover router — a split adds
// the new group's router before swapping the map in, so no lookup ever
// resolves to a group without one.
func (r *Router) SetGroup(id int, rt *cluster.Router) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups[id] = rt
}

// BeginHandoff opens the dual-read window: keys mapped to group to may fall
// back to group from. It also marks a rebalance in flight for metrics.
func (r *Router) BeginHandoff(to, from int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handoffActive, r.handoffTo, r.handoffFrom = true, to, from
	r.rebalanceCurrent = true
}

// EndHandoff closes the dual-read window.
func (r *Router) EndHandoff() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handoffActive = false
	r.rebalanceCurrent = false
}

// RebalanceInflight reports whether a split's handoff window is open.
func (r *Router) RebalanceInflight() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rebalanceCurrent
}

// Stats returns a copy of the per-shard serving record.
func (r *Router) Stats() map[int]GroupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]GroupStats, len(r.stats))
	for id, s := range r.stats {
		out[id] = *s
	}
	return out
}

// plan is the routing decision for one group's keys, made under the mutex:
// candidate groups in try order (the mapped group, then the handoff source
// while the dual-read window is open) with their routers and breaker
// verdicts.
type plan struct {
	n    int
	ids  [2]int
	rts  [2]*cluster.Router
	skip [2]bool // breaker said no (and no probe slot): skip without an attempt
}

func (r *Router) planLocked(g int, now time.Time) plan {
	p := plan{n: 1, ids: [2]int{g}}
	if r.handoffActive && g == r.handoffTo {
		p.ids[1] = r.handoffFrom
		p.n = 2
	}
	for i, id := range p.ids[:p.n] {
		p.rts[i] = r.groups[id]
		p.skip[i] = !r.breakerLocked(id).Allow(now.UnixNano())
	}
	return p
}

// breakerLocked returns group id's breaker, creating it closed on first use.
func (r *Router) breakerLocked(id int) *breaker.Breaker {
	b := r.breaker[id]
	if b == nil {
		b = &breaker.Breaker{Threshold: r.opts.BreakerThreshold, Cooldown: r.opts.BreakerCooldown}
		r.breaker[id] = b
	}
	return b
}

// noteShardOK books served keys answered by group id and closes its breaker.
func (r *Router) noteShardOK(id, served int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakerLocked(id).Success()
	r.statLocked(id).Served += uint64(served)
}

// releaseProbe frees group id's half-open probe slot after an admitted
// attempt that only drew ErrWrongShard: that answer neither closes nor
// re-arms the breaker, and a slot left taken would keep it open for good.
func (r *Router) releaseProbe(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakerLocked(id).Release()
}

func (r *Router) noteShardFail(id int, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakerLocked(id).Failure(now.UnixNano())
}

func (r *Router) noteKeysFailed(id, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.statLocked(id).Failed += uint64(failed)
}

func (r *Router) statLocked(id int) *GroupStats {
	s := r.stats[id]
	if s == nil {
		s = &GroupStats{}
		r.stats[id] = s
	}
	return s
}

// retryDelay is the jittered exponential backoff before retry attempt (1-based).
func (r *Router) retryDelay(attempt int) time.Duration {
	d := r.opts.RetryBase
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	r.mu.Lock()
	unit := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * (0.75 + 0.5*unit))
}

// Lookup answers one next-hop query. The error return is nil unless the
// router is misconfigured; per-key degradation (ErrShardUnavailable) and
// service answers ride in Result.Err, so batch callers get uniform per-key
// semantics.
func (r *Router) Lookup(src, dst int) (serve.Result, error) {
	now := r.opts.Clock()
	r.mu.Lock()
	p := r.planLocked(r.smap.GroupFor(src), now)
	r.mu.Unlock()
	for ci, id := range p.ids[:p.n] {
		rt := p.rts[ci]
		if rt == nil || p.skip[ci] {
			continue
		}
		for attempt := 0; ; attempt++ {
			res, err := rt.Lookup(src, dst)
			switch {
			case err == nil && res.Err == nil:
				r.noteShardOK(id, 1)
				return res, nil
			case err == nil && errors.Is(res.Err, serve.ErrWrongShard):
				// A correct answer from the wrong group — a stale map or a
				// mid-handoff race, not a failure. Fall through to the next
				// candidate group without charging the breaker.
				r.releaseProbe(id)
			case err == nil && !errors.Is(res.Err, serve.ErrOverloaded):
				// A definite service-level answer (unavailable destination,
				// self-lookup): every member of every group agrees, return it.
				r.noteShardOK(id, 1)
				return res, nil
			default:
				// Transport-level exhaustion (ErrNoBackends) or overload:
				// the shard is struggling — retry within budget.
				r.noteShardFail(id, r.opts.Clock())
				if attempt < r.opts.Retries {
					time.Sleep(r.retryDelay(attempt + 1))
					continue
				}
			}
			break
		}
	}
	r.noteKeysFailed(p.ids[0], 1)
	return serve.Result{Err: fmt.Errorf("%w: group %d", ErrShardUnavailable, p.ids[0])}, nil
}

// frontScratch is one LookupBatch call's pooled working set: the batch
// grouped by source group with a counting sort (idx holds caller indices,
// pairs and out the gathered sub-batches, all aligned), and one plan per
// group touched.
type frontScratch struct {
	group []int32 // per key: its source group
	ends  []int32 // per group: end of its run in idx
	plans []plan
	idx   []int32
	pairs [][2]int
	out   []serve.Result
	wg    sync.WaitGroup
}

var frontPool = sync.Pool{New: func() any { return new(frontScratch) }}

// LookupBatch scatter-gathers a batch. Under one mutex acquisition it reads
// the map, groups the keys by source group, and plans each group once
// (candidates, handoff fallback, breaker admission). Each group's keys then
// travel as one sub-batch through its failover router — the last group on
// the calling goroutine, the others on their own. Answers land at their
// key's index; a group that stays down after retries yields
// ErrShardUnavailable for exactly its keys.
func (r *Router) LookupBatch(pairs [][2]int, out []serve.Result) error {
	if len(pairs) != len(out) {
		return fmt.Errorf("shard: LookupBatch pairs (%d) and out (%d) length mismatch", len(pairs), len(out))
	}
	if len(pairs) == 0 {
		return nil
	}
	sc := frontPool.Get().(*frontScratch)
	n := len(pairs)
	if cap(sc.idx) < n {
		sc.group = make([]int32, n)
		sc.idx = make([]int32, n)
		sc.pairs = make([][2]int, n)
		sc.out = make([]serve.Result, n)
	}
	group, idx, sub, subOut := sc.group[:n], sc.idx[:n], sc.pairs[:n], sc.out[:n]

	now := r.opts.Clock()
	r.mu.Lock()
	m := r.smap
	if cap(sc.ends) < m.Groups {
		sc.ends = make([]int32, m.Groups)
		sc.plans = make([]plan, m.Groups)
	}
	ends, plans := sc.ends[:m.Groups], sc.plans[:m.Groups]
	clear(ends)
	for i, p := range pairs {
		g := int32(m.GroupFor(p[0]))
		group[i] = g
		ends[g]++
	}
	sum, last := int32(0), 0
	for g, c := range ends {
		if c > 0 {
			plans[g] = r.planLocked(g, now)
			last = g
		}
		ends[g] = sum // the run's start, advanced to its end by the scatter
		sum += c
	}
	r.mu.Unlock()
	for i, g := range group {
		pos := ends[g]
		idx[pos], sub[pos] = int32(i), pairs[i]
		ends[g]++
	}

	// Every group but the last non-empty one runs on its own goroutine.
	lo := int32(0)
	for g, hi := range ends {
		if hi == lo {
			continue
		}
		if g == last {
			r.lookupGroup(plans[g], idx[lo:hi], sub[lo:hi], subOut[lo:hi], pairs, out)
			break
		}
		sc.wg.Add(1)
		go func(p plan, idx []int32, sub [][2]int, subOut []serve.Result) {
			defer sc.wg.Done()
			r.lookupGroup(p, idx, sub, subOut, pairs, out)
		}(plans[g], idx[lo:hi], sub[lo:hi], subOut[lo:hi])
		lo = hi
	}
	sc.wg.Wait()
	clear(subOut) // pooled scratch must not pin answers' errors
	frontPool.Put(sc)
	return nil
}

// lookupGroup answers one group's keys: idx holds their caller indices,
// sub their pairs, and subOut receives the group routers' answers. The keys
// go as one sub-batch to the plan's first candidate; keys it leaves
// overloaded or unreached are retried as a shrinking sub-batch within the
// retry budget, then handed to the next candidate, and whatever is left
// degrades to ErrShardUnavailable. Each failed attempt is one breaker
// failure. Keys answered ErrWrongShard (the plan's map went stale, or the
// handoff window) take the per-key Lookup at the end, which plans them
// afresh.
func (r *Router) lookupGroup(p plan, idx []int32, sub [][2]int, subOut []serve.Result, pairs [][2]int, out []serve.Result) {
	var wrong []int32 // keys answered ErrWrongShard; rare, so allocated on demand
	defer func() {
		for _, k := range wrong {
			out[k], _ = r.Lookup(pairs[k][0], pairs[k][1])
		}
	}()
	for ci, id := range p.ids[:p.n] {
		rt := p.rts[ci]
		if rt == nil || p.skip[ci] {
			continue
		}
		for attempt := 0; ; attempt++ {
			_ = rt.LookupBatch(sub, subOut) // lengths match by construction
			served, failed := 0, 0
			for j, k := range idx {
				res := subOut[j]
				switch {
				case res.Err == nil:
					out[k] = res
					served++
				case errors.Is(res.Err, serve.ErrWrongShard):
					// A correct answer from the wrong group — not a failure,
					// so the breaker is not charged. The key is re-planned
					// once this group's attempts are booked.
					wrong = append(wrong, k)
				case !errors.Is(res.Err, serve.ErrOverloaded) && !errors.Is(res.Err, cluster.ErrNoBackends):
					// A definite service-level answer (unavailable
					// destination, self-lookup): every member agrees.
					out[k] = res
					served++
				default:
					// Overloaded or unreached: keep it for the next attempt.
					idx[failed], sub[failed] = k, sub[j]
					failed++
				}
			}
			idx, sub, subOut = idx[:failed], sub[:failed], subOut[:failed]
			if served > 0 {
				r.noteShardOK(id, served)
			}
			if failed == 0 {
				if served == 0 {
					r.releaseProbe(id)
				}
				return
			}
			r.noteShardFail(id, r.opts.Clock())
			if attempt < r.opts.Retries {
				time.Sleep(r.retryDelay(attempt + 1))
				continue
			}
			break
		}
	}
	r.noteKeysFailed(p.ids[0], len(idx))
	err := fmt.Errorf("%w: group %d", ErrShardUnavailable, p.ids[0])
	for _, k := range idx {
		out[k] = serve.Result{Err: err}
	}
}
