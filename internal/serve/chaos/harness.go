package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/cluster/shard"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/spotgrade"
)

// avgDeg is the target average degree of every sparse topology a run builds.
const avgDeg = 8

// tierPlan is what a run's scheme decides, by the same rule as routetabd
// -tier auto: the topology family, the engine constructor, and whether
// answers are graded strictly or by spot sample.
type tierPlan struct {
	name      string // serve.TierFull or serve.TierTables
	strict    bool
	topology  func(n int, rng *rand.Rand) (*graph.Graph, error)
	newEngine func(*graph.Graph, string) (*serve.Engine, error)
}

// planFor maps scheme onto its tier. A table-capable scheme (landmark) runs
// the tables tier on SparseConnected(n, 8) and is spot-graded; a
// shortest-path scheme runs the full tier on G(n, 1/2) and is graded
// strictly; any other scheme is refused.
func planFor(scheme string) (tierPlan, error) {
	switch {
	case !serve.KnownScheme(scheme):
		return tierPlan{}, fmt.Errorf("chaos: unknown scheme %q", scheme)
	case serve.TableCapable(scheme):
		sparse := func(n int, rng *rand.Rand) (*graph.Graph, error) { return gengraph.SparseConnected(n, avgDeg, rng) }
		return tierPlan{name: serve.TierTables, topology: sparse, newEngine: serve.NewTieredEngine}, nil
	case serve.IsShortestPath(scheme):
		return tierPlan{name: serve.TierFull, strict: true, topology: gengraph.GnHalf, newEngine: serve.NewEngine}, nil
	}
	return tierPlan{}, fmt.Errorf("chaos: scheme %q is not shortest-path; strict grading needs stretch 1", scheme)
}

// phase is one scheduled injection, fired at a lookup-progress milestone.
type phase struct {
	name string
	run  func() error
}

// loop is the closed-loop load the Run, RunCluster, RunShard and RunNode
// harnesses drive: workers seeded clients draw uniform (src, dst)
// pairs over 1..n, batch pairs per request, until lookups pairs are issued,
// while a controller fires the phase schedule at progress milestones of
// answered.
type loop struct {
	n, workers, batch int
	seed              int64
	lookups           uint64
	answered          *atomic.Uint64
	// maxBackoff clamps a shed's retry-after hint so a stalled member
	// cannot park the whole closed loop.
	maxBackoff time.Duration
	// lookup answers one request into out (counting every answer into
	// answered) and returns the backoff the answers asked for; an error
	// halts the load.
	lookup func(pairs [][2]int, out []serve.Result) (time.Duration, error)
}

// run drives the load through phases and returns its wall time. Phase k fires
// once answered passes milestone k; workers park at the next unfired
// milestone, so each phase starts at its milestone however late the
// controller is scheduled. When the workers reach the target first, the
// remaining phases run back to back, so the fault schedule always completes.
// A failing phase halts the load and the error names it.
func (l loop) run(phases []phase) (time.Duration, error) {
	stop := make(chan struct{})
	var haltOnce, errOnce sync.Once
	halt := func() { haltOnce.Do(func() { close(stop) }) }
	var runErr error
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		halt()
	}

	total := len(phases)
	milestone := func(k int) uint64 {
		if k >= total {
			return math.MaxUint64
		}
		return l.lookups * uint64(k+1) / uint64(total+1)
	}
	var gate, issued atomic.Uint64
	gate.Store(milestone(0))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.seed*1_000_003 + int64(w)*7919))
			pairs := make([][2]int, l.batch)
			out := make([]serve.Result, l.batch)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if l.answered.Load() >= gate.Load() {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				// The request that crosses the target is cut short, so
				// exactly lookups pairs are issued whatever the batch size.
				size := l.batch
				if end := issued.Add(uint64(l.batch)); end > l.lookups {
					over := end - l.lookups
					if over >= uint64(l.batch) {
						halt()
						return
					}
					size -= int(over)
				}
				pairs, out := pairs[:size], out[:size]
				for i := range pairs {
					src := rng.Intn(l.n) + 1
					dst := rng.Intn(l.n-1) + 1
					if dst >= src {
						dst++
					}
					pairs[i] = [2]int{src, dst}
				}
				backoff, err := l.lookup(pairs, out)
				if err != nil {
					fail(err)
					return
				}
				if backoff > 0 {
					time.Sleep(min(backoff, l.maxBackoff))
				}
			}
		}(w)
	}

	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		defer gate.Store(math.MaxUint64) // a failed phase must not park the workers
		for k, ph := range phases {
		wait:
			for l.answered.Load() < milestone(k) {
				select {
				case <-stop:
					break wait
				case <-time.After(100 * time.Microsecond):
				}
			}
			gate.Store(milestone(k + 1))
			if err := ph.run(); err != nil {
				fail(fmt.Errorf("chaos phase %q: %w", ph.name, err))
				return
			}
		}
	}()

	wg.Wait()
	halt()
	ctl.Wait()
	return time.Since(start), runErr
}

// tally is the availability ledger every harness keeps: each answer counts
// once as served, rejected, unavailable, or errored.
type tally struct {
	answered    atomic.Uint64
	served      atomic.Uint64
	rejected    atomic.Uint64
	unavailable atomic.Uint64
	errored     atomic.Uint64
}

// count books one answer — err is a transport failure, no member could be
// reached — and returns the backoff a shed asked for, and whether the answer
// was served (carries a routing decision to grade).
func (t *tally) count(r *serve.Result, err error) (time.Duration, bool) {
	t.answered.Add(1)
	var oe *serve.OverloadedError
	switch {
	case err != nil, errors.Is(r.Err, serve.ErrUnavailable), errors.Is(r.Err, shard.ErrShardUnavailable):
		t.unavailable.Add(1)
	case errors.As(r.Err, &oe):
		t.rejected.Add(1)
		return oe.RetryAfter, false
	case errors.Is(r.Err, serve.ErrOverloaded), errors.Is(r.Err, serve.ErrClosed):
		t.rejected.Add(1)
		return 500 * time.Microsecond, false
	case r.Err != nil:
		t.errored.Add(1)
	default:
		t.served.Add(1)
		return 0, true
	}
	return 0, false
}

// Ledger is the availability ledger every load-driving report embeds: the
// lookups answered, each counted once as served, rejected, unavailable or
// errored, over the load's wall time.
type Ledger struct {
	Lookups         uint64        `json:"lookups"`
	Served          uint64        `json:"served"`
	Rejected        uint64        `json:"rejected"`
	Unavailable     uint64        `json:"unavailable"`
	Errored         uint64        `json:"errored"`
	AvailabilityPct float64       `json:"availability_pct"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	QPS             float64       `json:"qps"`
}

// ledger fills a Ledger from the tally of a load that ran for elapsed.
func (t *tally) ledger(elapsed time.Duration) Ledger {
	l := Ledger{
		Lookups:     t.answered.Load(),
		Served:      t.served.Load(),
		Rejected:    t.rejected.Load(),
		Unavailable: t.unavailable.Load(),
		Errored:     t.errored.Load(),
		Elapsed:     elapsed,
	}
	if elapsed > 0 {
		l.QPS = float64(l.Lookups) / elapsed.Seconds()
	}
	if l.Lookups > 0 {
		l.AvailabilityPct = 100 * float64(l.Served) / float64(l.Lookups)
	}
	return l
}

// grader is the strict judge of full-tier answers, built on the tally. The
// soundness argument is the same everywhere — Dist/NextDist come from the
// same snapshot that produced Next, so hot swaps, rebuilds, and replica
// staleness cannot produce false verdicts.
type grader struct {
	tally
	correct   atomic.Uint64
	degraded  atomic.Uint64
	incorrect atomic.Uint64
	maxExtra  atomic.Int64
}

// grade counts one answer and judges a served one, returning a suggested
// backoff when the server asked for one. Strict branch: NextDist == Dist−1 in
// the serving snapshot. Degraded branch: the detour's first hop plus
// remaining snapshot distance must be within +2 hops of the snapshot's
// shortest path.
func (h *grader) grade(r *serve.Result, err error) time.Duration {
	backoff, served := h.count(r, err)
	switch {
	case !served:
		return backoff
	case r.Degraded:
		if r.NextDist < 0 || (r.Dist >= 0 && 1+r.NextDist > r.Dist+2) {
			h.incorrect.Add(1)
			return 0
		}
		extra := int64(1 + r.NextDist - r.Dist)
		for {
			cur := h.maxExtra.Load()
			if extra <= cur || h.maxExtra.CompareAndSwap(cur, extra) {
				break
			}
		}
		h.degraded.Add(1)
	case r.NextDist == r.Dist-1:
		h.correct.Add(1)
	default:
		h.incorrect.Add(1)
	}
	return 0
}

// SpotTotals sums a run's spot graders: answers graded against on-demand BFS
// ground truth, contract violations, and the worst observed stretch (×1000).
type SpotTotals struct {
	SpotGraded          uint64 `json:"spot_graded"`
	SpotViolations      uint64 `json:"spot_violations"`
	SpotMaxStretchMilli int64  `json:"spot_max_stretch_milli"`
}

// spotTotals sums graders and returns the first violation they recorded.
func spotTotals(graders []*spotgrade.Grader) (SpotTotals, error) {
	var t SpotTotals
	var first error
	for _, g := range graders {
		t.SpotGraded += g.Graded()
		t.SpotViolations += g.Violations()
		t.SpotMaxStretchMilli = max(t.SpotMaxStretchMilli, g.MaxStretchMilli())
		if first == nil {
			first = g.Err()
		}
	}
	return t, first
}

// checkSubQuadratic is the tables tier's asymptotic space gate. Below ~1024
// nodes the fixed graph and port sections dominate and the ratio is
// meaningless.
func checkSubQuadratic(snap *serve.Snapshot) error {
	n, size := snap.N(), snap.ArenaSize()
	if n >= 1024 && uint64(size)*2 >= uint64(n)*uint64(n) {
		return fmt.Errorf("chaos: tables-tier snapshot is %d bytes for n=%d — not o(n²)", size, n)
	}
	return nil
}

// absentEdges returns up to k edges missing from g, each incident to a
// distinct low-numbered node — the tables tier's churn toggle pool. Toggling
// only these keeps the topology connected (removing an edge the harness
// itself added cannot disconnect it), which landmark builds require.
func absentEdges(g *graph.Graph, k int) [][2]int {
	var out [][2]int
	n := g.N()
	for u := 1; u <= n && len(out) < k; u++ {
		for w := u + 2; w <= n; w++ {
			if !g.HasEdge(u, w) {
				out = append(out, [2]int{u, w})
				break
			}
		}
	}
	return out
}

// toggle flips edge e: added if absent, removed if present.
func toggle(e [2]int) func(*graph.Graph) error {
	return func(g *graph.Graph) error {
		if g.HasEdge(e[0], e[1]) {
			return g.RemoveEdge(e[0], e[1])
		}
		return g.AddEdge(e[0], e[1])
	}
}

// MemberStats is one member's share of the run.
type MemberStats struct {
	Name   string  `json:"name"`
	Served uint64  `json:"served"`
	QPS    float64 `json:"qps"`
}

// waitUntil polls done every poll until it holds or deadline has passed, and
// reports whether it held.
func waitUntil(deadline, poll time.Duration, done func() bool) bool {
	until := time.Now().Add(deadline)
	for !done() {
		if time.Now().After(until) {
			return false
		}
		time.Sleep(poll)
	}
	return true
}

// probeFailover polls answered from a kill at start until a lookup is
// answered cleanly and returns the failover latency, or fails after deadline.
func probeFailover(start time.Time, deadline time.Duration, answered func() bool) (int64, error) {
	for !answered() {
		if time.Since(start) > deadline {
			return 0, fmt.Errorf("%w: no routed answer %v after kill", ErrFailover, time.Since(start))
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start).Nanoseconds(), nil
}

// sampleLag folds the replicas' current replay lag into the running max.
func sampleLag(maxLag *atomic.Uint64, replicas []*cluster.Replica) {
	for _, r := range replicas {
		_, _, lag := r.Stats()
		for cur := maxLag.Load(); lag > cur && !maxLag.CompareAndSwap(cur, lag); cur = maxLag.Load() {
		}
	}
}

// replicationTotals sums the replicas' full resyncs and the wire corruptions
// the sources injected.
func replicationTotals(replicas []*cluster.Replica, sources []*chaosSource) (resyncs uint64, corruptions int) {
	for _, r := range replicas {
		_, rs, _ := r.Stats()
		resyncs += rs
	}
	for _, cs := range sources {
		corruptions += cs.corruptions()
	}
	return resyncs, corruptions
}

// gate is one member's reachability: both its replication feed and its
// client traffic fail while down, like a real network partition.
type gate struct{ down atomic.Bool }

var errUnreachable = errors.New("chaos: member unreachable (partitioned)")

// member is one cluster node as a router sees it: a chaos gate in front of
// either a local server (srv, swapped when the node restarts) or an inner
// backend, plus an optional spot grader over the node's own engine, so
// replica staleness cannot cause false verdicts. Answers served while no
// grader is bound pass ungraded.
type member struct {
	name   string
	gate   *gate
	srv    atomic.Pointer[serve.Server]
	inner  cluster.Backend
	grader atomic.Pointer[spotgrade.Grader]
}

func (m *member) Name() string { return m.name }

// Lookup implements cluster.Backend: a partitioned or dead member is a
// transport error; everything else is the node's own answer.
func (m *member) Lookup(src, dst int) (serve.Result, error) {
	if m.gate.down.Load() {
		return serve.Result{}, errUnreachable
	}
	var res serve.Result
	if m.inner != nil {
		var err error
		if res, err = m.inner.Lookup(src, dst); err != nil {
			return res, err
		}
	} else if srv := m.srv.Load(); srv != nil {
		res = srv.NextHop(src, dst)
	} else {
		return serve.Result{}, errUnreachable
	}
	if g := m.grader.Load(); g != nil {
		g.Observe(src, dst, &res)
	}
	return res, nil
}

// LookupBatch implements cluster.BatchBackend: a partitioned or dead member
// fails the whole batch at the transport; otherwise the batch goes in one
// call to the inner backend or the local server, and every answer is
// spot-graded.
func (m *member) LookupBatch(pairs [][2]int, out []serve.Result) error {
	if m.gate.down.Load() {
		return errUnreachable
	}
	var err error
	if m.inner != nil {
		bb, ok := m.inner.(cluster.BatchBackend)
		if !ok {
			return errors.New("chaos: inner backend has no batch method")
		}
		err = bb.LookupBatch(pairs, out)
	} else if srv := m.srv.Load(); srv != nil {
		err = srv.LookupBatch(pairs, out)
	} else {
		return errUnreachable
	}
	if err != nil {
		return err
	}
	if g := m.grader.Load(); g != nil {
		for i, p := range pairs {
			g.Observe(p[0], p[1], &out[i])
		}
	}
	return nil
}

// chaosSource wraps a replica's upstream with the harness's failure
// injection. Every fetch round-trips through the wire codec, so the bytes a
// routetabd cluster would put on the wire are the bytes the harness grades;
// an armed corruption bit-flips the encoded batch mid-flight.
type chaosSource struct {
	mu          sync.Mutex
	target      cluster.Source
	gate        *gate
	feedDown    atomic.Bool // severs replication only, not client traffic
	fresh       bool        // target has not been fetched from since setTarget
	corruptNext bool
	corrupted   int
	rng         *rand.Rand
}

// setTarget repoints the feed. The first fetch after it does not wait: the
// new target may sit at the replica's position under another epoch, where a
// parked fetch would learn the epoch only when its wait ran out.
func (cs *chaosSource) setTarget(s cluster.Source) {
	cs.mu.Lock()
	cs.target, cs.fresh = s, true
	cs.mu.Unlock()
}

// armCorruption bit-flips the next non-empty WAL batch fetched.
func (cs *chaosSource) armCorruption(on bool) {
	cs.mu.Lock()
	cs.corruptNext = on
	cs.mu.Unlock()
}

func (cs *chaosSource) corruptions() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.corrupted
}

// cut reports whether the replica is partitioned from its feed.
func (cs *chaosSource) cut() bool { return cs.gate.down.Load() || cs.feedDown.Load() }

func (cs *chaosSource) current() (cluster.Source, error) {
	if cs.cut() {
		return nil, errUnreachable
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.target, nil
}

func (cs *chaosSource) FetchState() (*cluster.State, error) {
	t, err := cs.current()
	if err != nil {
		return nil, err
	}
	st, err := t.FetchState()
	if cs.cut() {
		// The cut came down while the state was read: drop it.
		return nil, errUnreachable
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cluster.EncodeState(&buf, st); err != nil {
		return nil, err
	}
	return cluster.DecodeState(&buf)
}

// FetchWAL forwards ctx and re-checks the gate after the (possibly parked)
// fetch returns: a partition that came down while the fetch waited must not
// leak the records appended behind it.
func (cs *chaosSource) FetchWAL(ctx context.Context, after uint64) (*cluster.WALBatch, error) {
	if cs.cut() {
		return nil, errUnreachable
	}
	cs.mu.Lock()
	t := cs.target
	if cs.fresh {
		cs.fresh, ctx = false, cluster.NoWait
	}
	cs.mu.Unlock()
	b, err := t.FetchWAL(ctx, after)
	if cs.cut() {
		return nil, errUnreachable
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cluster.EncodeWALBatch(&buf, b); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	cs.mu.Lock()
	doCorrupt := cs.corruptNext && len(b.Records) > 0 && len(raw) > 0
	if doCorrupt {
		cs.corruptNext = false
		cs.corrupted++
		raw[cs.rng.Intn(len(raw))] ^= 1 << uint(cs.rng.Intn(8))
	}
	cs.mu.Unlock()
	decoded, err := cluster.DecodeWALBatch(bytes.NewReader(raw))
	if err != nil && doCorrupt {
		// The codec caught the flip, as it must; surface it as corruption
		// so the replica falls back to a state fetch. (A flip the codec
		// cannot distinguish decodes to identical records: a clean fetch.)
		return nil, fmt.Errorf("%w: injected wire corruption: %v", cluster.ErrBadRecord, err)
	}
	return decoded, err
}

func (cs *chaosSource) FetchDigest() (cluster.Digest, error) {
	t, err := cs.current()
	if err != nil {
		return cluster.Digest{}, err
	}
	return t.FetchDigest()
}
