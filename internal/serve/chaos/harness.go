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
	"routetab/internal/faultinject"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/spotgrade"
)

// avgDeg is the target average degree of every sparse topology a run builds.
const avgDeg = 8

// tierPlan is what a run's scheme decides, by the same rule as routetabd
// -tier auto: the topology family, the engine constructor, whether answers
// are graded strictly or by spot sample, and the group shapes' pacing.
type tierPlan struct {
	name      string // serve.TierFull or serve.TierTables
	strict    bool
	topology  func(n int, rng *rand.Rand) (*graph.Graph, error)
	newEngine func(*graph.Graph, string) (*serve.Engine, error)
	// budget bounds a group shape's tolerated unserved fraction. The tables
	// tier's rebuilds are ~100× heavier than the full tier's at n=256, so
	// partitions and the kill window cost proportionally more.
	budget float64
	// settle bounds every wait for the replicas to catch up, polled every
	// settlePoll.
	settle, settlePoll time.Duration
	// churnBurst is the topology changes one Churn fault publishes.
	churnBurst int
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
		return tierPlan{name: serve.TierTables, topology: sparse, newEngine: serve.NewTieredEngine,
			budget: 0.02, settle: 10 * time.Second, settlePoll: time.Millisecond, churnBurst: 1}, nil
	case serve.IsShortestPath(scheme):
		return tierPlan{name: serve.TierFull, strict: true, topology: gengraph.GnHalf, newEngine: serve.NewEngine,
			budget: 0.01, settle: 2 * time.Second, settlePoll: 300 * time.Microsecond, churnBurst: 2}, nil
	}
	return tierPlan{}, fmt.Errorf("chaos: scheme %q is not shortest-path; strict grading needs stretch 1", scheme)
}

// bootPrimary builds a primary's serving stack from the seeded initial
// topology of the plan's family and recovers its durable WAL from fs
// forward: a fresh start and a cold restart after kill -9 are the same code
// path.
func (p tierPlan) bootPrimary(scheme string, n int, seed int64, srvOpts serve.ServerOptions,
	repOpts serve.RepairOptions, fs faultinject.FS) (*cluster.Primary, *cluster.RecoveryReport, error) {
	g, err := p.topology(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	eng, err := p.newEngine(g, scheme)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewServer(eng, srvOpts)
	rep := serve.NewRepairer(srv, repOpts)
	log, rpt, err := cluster.RecoverPrimaryLog(eng, rep, cluster.RecoverConfig{Dir: "wal", FS: fs})
	if err == nil {
		var pri *cluster.Primary
		if pri, err = cluster.NewPrimaryAt(eng, srv, rep, rpt.Epoch, log); err == nil {
			return pri, rpt, nil
		}
	}
	rep.Close()
	srv.Close()
	return nil, nil, err
}

// closePrimary tears a primary's stack down; kill abandons the WAL
// unflushed, like kill -9.
func closePrimary(p *cluster.Primary, kill bool) {
	p.Close()
	if kill {
		p.Log().Abandon()
	} else {
		_ = p.Log().CloseWAL()
	}
	p.Repairer().Close()
	p.Server().Close()
}

// phase is one scheduled injection, fired at a lookup-progress milestone.
type phase struct {
	name string
	run  func() error
}

// loop is the closed-loop load every shape drives: workers seeded clients
// draw uniform (src, dst) pairs over 1..n, batch pairs per request, until
// lookups pairs are issued, while a controller fires the phase schedule at
// progress milestones of answered.
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

// tally is the availability ledger every shape keeps: each answer counts
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
	case err != nil, errors.Is(r.Err, serve.ErrUnavailable), errors.Is(r.Err, shard.ErrShardUnavailable),
		errors.Is(r.Err, cluster.ErrNoBackends):
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

// Ledger is the availability ledger every report embeds: the lookups
// answered, each counted once as served, rejected, unavailable or errored,
// over the load's wall time.
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

// grader judges every answer a run's clients receive, on top of the tally.
// Strictly on the full tier: the soundness argument is the same everywhere —
// Dist/NextDist come from the same snapshot that produced Next, so hot swaps,
// rebuilds, and replica staleness cannot produce false verdicts. On the
// tables tier it only counts: spot graders over the serving engines judge,
// the members' own in the group shapes and spot in the single-node shape.
type grader struct {
	tally
	strict    bool
	spot      *spotgrade.Grader
	correct   atomic.Uint64
	degraded  atomic.Uint64
	incorrect atomic.Uint64
	maxExtra  atomic.Int64
}

// judge counts one answer to pair p and grades a served one, returning a
// suggested backoff when the server asked for one. Strict branch: NextDist ==
// Dist−1 in the serving snapshot. Degraded branch: the detour's first hop
// plus remaining snapshot distance must be within +2 hops of the snapshot's
// shortest path.
func (h *grader) judge(p [2]int, r *serve.Result, err error) time.Duration {
	backoff, served := h.count(r, err)
	switch {
	case !h.strict:
		if h.spot != nil {
			h.spot.Observe(p[0], p[1], r)
		}
	case !served:
	case r.Degraded:
		if r.NextDist < 0 || (r.Dist >= 0 && 1+r.NextDist > r.Dist+2) {
			h.incorrect.Add(1)
			break
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
	return backoff
}

// fill writes the ledger of a load that ran for elapsed, the strict counts,
// and the totals of the spot graders into r.
func (h *grader) fill(r *Report, elapsed time.Duration, spots []*spotgrade.Grader) {
	r.Ledger = Ledger{
		Lookups:     h.answered.Load(),
		Served:      h.served.Load(),
		Rejected:    h.rejected.Load(),
		Unavailable: h.unavailable.Load(),
		Errored:     h.errored.Load(),
		Elapsed:     elapsed,
	}
	if elapsed > 0 {
		r.QPS = float64(r.Lookups) / elapsed.Seconds()
	}
	if r.Lookups > 0 {
		r.AvailabilityPct = 100 * float64(r.Served) / float64(r.Lookups)
	}
	r.Correct, r.Degraded, r.Incorrect = h.correct.Load(), h.degraded.Load(), h.incorrect.Load()
	r.MaxDetourExtraHops = h.maxExtra.Load()
	for _, g := range spots {
		r.SpotGraded += g.Graded()
		r.SpotViolations += g.Violations()
		r.SpotMaxStretchMilli = max(r.SpotMaxStretchMilli, g.MaxStretchMilli())
		if err := g.Err(); err != nil && r.Violation == "" {
			r.Violation = err.Error()
		}
	}
}

// SpotTotals sums a run's spot graders: answers graded against on-demand BFS
// ground truth, contract violations, and the worst observed stretch (×1000).
type SpotTotals struct {
	SpotGraded          uint64 `json:"spot_graded"`
	SpotViolations      uint64 `json:"spot_violations"`
	SpotMaxStretchMilli int64  `json:"spot_max_stretch_milli"`
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
// distinct low-numbered node — the swap and tables-tier churn toggle pool.
// Toggling only these keeps the topology connected (removing an edge the
// harness itself added cannot disconnect it), which landmark builds require.
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

// tableBytes is what two snapshots must agree on byte for byte to serve the
// same tables: the packed distance matrix on the full tier, the encoded
// scheme tables on the tables tier.
func tableBytes(s *serve.Snapshot) []byte {
	if s.Dist != nil {
		return s.Dist.Packed()
	}
	return s.TablesBytes()
}

// landmarks is the landmark count of snap's scheme (0 for other schemes).
func landmarks(snap *serve.Snapshot) int {
	if lm, ok := snap.SchemeImpl().(interface{ K() int }); ok {
		return lm.K()
	}
	return 0
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
	corrupted   atomic.Int64
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
		cs.corrupted.Add(1)
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
