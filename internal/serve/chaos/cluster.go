// Cluster chaos: the replication-layer counterpart of Run, for both serving
// tiers. A primary and a set of replicas serve the same topology; a
// cluster.Router fans a closed-loop load across all of them while the harness
// injects the failure modes a replicated routing service meets — replica
// partitions from a seeded faultinject partition plan, a kill -9 of the
// primary recovered from its durable WAL, WAL corruption and truncation
// forcing snapshot-fetch fallbacks, and a primary kill recovered by promoting
// a replica.
//
// The scheme picks the tier, by the same rule as routetabd -tier auto. The
// full tier serves a dense G(n, 1/2) topology, churns it with edge toggles
// and link fail/heal cycles, and grades every answer strictly. The tables
// tier (landmark) serves a sparse topology sized past the all-pairs ceiling,
// churns it by toggling initially-absent edges, and spot-grades answers:
// there is no all-pairs matrix to grade against, and Result.Dist/NextDist are
// stretch-bounded estimates, so each member carries a spotgrade.Grader over
// its own engine, asserting reachability, real-neighbour next hops, and
// stretch ≤ 3 on a deterministic hash sample.
//
// The contract extends the single-node harness's rule to the cluster:
// failures may cost availability (bounded by a much tighter budget, since a
// healthy member can almost always answer) but never correctness, and at
// quiesce every member must be serving byte-identical tables — asserted
// first by anti-entropy digests, then by comparing the packed distance
// matrices (full tier) or the encoded scheme tables (tables tier).
//
// Every replication fetch round-trips through the real WAL/state codec
// (encode → optionally corrupt → decode), so the bytes a routetabd cluster
// would put on the wire are the bytes this harness grades.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/faultinject"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/spotgrade"
)

// ClusterConfig parameterises one cluster chaos run.
type ClusterConfig struct {
	// N is the topology size (default 64 on the full tier, 4096 on the
	// tables tier).
	N int
	// AvgDeg is the tables tier's sparse topology target average degree
	// (default 8).
	AvgDeg float64
	// Seed keys the topology, query streams, churn, corruption, and the
	// partition plan.
	Seed int64
	// Scheme picks the tier: a table-capable scheme (landmark) runs the
	// tables tier; any other must be shortest-path (default "fulltable").
	Scheme string
	// Replicas is how many followers join the primary (default 2 — a
	// 3-member cluster).
	Replicas int
	// Lookups is the total lookup target across workers (default 120_000 on
	// the full tier, 20_000 on the tables tier).
	Lookups uint64
	// Workers is the closed-loop client count (default 6 on the full tier, 4
	// on the tables tier).
	Workers int
	// SkipKill disables the primary kill + promotion phase.
	SkipKill bool
}

// The fixed parts of the fault schedule.
const (
	// partitionHealAfter is how many partition-plan ticks an isolated
	// replica stays cut off.
	partitionHealAfter = 2
	// clusterCorruptions is how many WAL fetches are bit-flipped on the
	// wire; each must end in a clean resync, never divergence.
	clusterCorruptions = 1
	// clusterTruncations is how many times the primary truncates its WAL
	// under a lagging replica, forcing a state fetch.
	clusterTruncations = 1
)

// clusterTier is everything that differs between the two tiers.
type clusterTier struct {
	n, workers int
	lookups    uint64
	// budget bounds the tolerated unserved fraction. The tables tier's
	// rebuilds are ~100× heavier than the full tier's at n=256, so
	// partitions and the kill window cost proportionally more.
	budget float64
	// syncInterval paces replica WAL pulls and settle polls.
	syncInterval time.Duration
	// settle bounds every wait for the replicas to catch up.
	settle time.Duration
	// churnBurst is the churn rounds a churn phase publishes.
	churnBurst int
}

var clusterTiers = map[string]clusterTier{
	serve.TierFull: {n: 64, workers: 6, lookups: 120_000, budget: 0.01,
		syncInterval: 300 * time.Microsecond, settle: 2 * time.Second, churnBurst: 2},
	serve.TierTables: {n: 4096, workers: 4, lookups: 20_000, budget: 0.02,
		syncInterval: time.Millisecond, settle: 10 * time.Second, churnBurst: 1},
}

// ClusterReport is one cluster chaos run's graded outcome. Strict counts
// (Correct, Degraded, Incorrect, MaxDetourExtraHops) grade the full tier;
// the spot totals grade the tables tier.
type ClusterReport struct {
	Scheme    string `json:"scheme"`
	Tier      string `json:"tier"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	Members   int    `json:"members"`
	Landmarks int    `json:"landmarks"`

	Lookups     uint64 `json:"lookups"`
	Served      uint64 `json:"served"`
	Rejected    uint64 `json:"rejected"`
	Unavailable uint64 `json:"unavailable"`
	Errored     uint64 `json:"errored"`

	Correct            uint64 `json:"correct"`
	Degraded           uint64 `json:"degraded"`
	Incorrect          uint64 `json:"incorrect"`
	MaxDetourExtraHops int64  `json:"max_detour_extra_hops"`
	SpotTotals

	ChurnRounds  int    `json:"churn_rounds"`
	Partitions   int    `json:"partitions"`
	Corruptions  int    `json:"corruptions"`
	Truncations  int    `json:"truncations"`
	Promoted     bool   `json:"promoted"`
	FinalEpoch   uint64 `json:"final_epoch"`
	Resyncs      uint64 `json:"resyncs"`
	MaxReplayLag uint64 `json:"max_replay_lag"`
	// SettleTimeouts counts waits for the replicas to catch up that ran out
	// their deadline; a healthy run has none.
	SettleTimeouts int `json:"settle_timeouts"`

	// Crash-restart phase (JSON-only; not part of the CSV artefact layout).
	CrashRestarts   int    `json:"crash_restarts"`   // kill -9 + cold restarts performed
	WalRecovered    bool   `json:"wal_recovered"`    // restart resumed its epoch from the WAL
	RecoveryResyncs uint64 `json:"recovery_resyncs"` // full resyncs caused by the restart (must be 0)

	// Space figures: ResyncBytes is the encoded state a joining or resyncing
	// member actually receives; MatrixBytes is the n² one-byte-per-pair
	// packed matrix a full-tier resync ships and the tables tier avoids.
	SnapshotBytes int    `json:"snapshot_bytes"`
	ResyncBytes   int    `json:"resync_bytes"`
	MatrixBytes   uint64 `json:"matrix_bytes"`

	AvailabilityPct  float64       `json:"availability_pct"`
	FailoverNs       int64         `json:"failover_ns"`
	DigestsConverged bool          `json:"digests_converged"`
	TablesIdentical  bool          `json:"tables_identical"`
	PerMember        []MemberStats `json:"per_member"`
	Elapsed          time.Duration `json:"elapsed_ns"`
	QPS              float64       `json:"qps"`
}

// String renders the headline figures.
func (r *ClusterReport) String() string {
	return fmt.Sprintf("cluster %s/%s n=%d members=%d landmarks=%d: %d lookups (%.0f qps), %.3f%% available (served=%d rejected=%d unavailable=%d errored=%d), strict correct=%d degraded=%d incorrect=%d, spot graded=%d violations=%d max stretch %.3f, %d churn rounds, %d partitions, %d corruptions, %d truncations, crashes=%d wal_recovered=%v recovery_resyncs=%d, promoted=%v epoch=%d resyncs=%d lag≤%d settle timeouts=%d, failover %v, resync %d B vs matrix %d B, digests converged=%v tables identical=%v",
		r.Scheme, r.Tier, r.N, r.Members, r.Landmarks, r.Lookups, r.QPS, r.AvailabilityPct,
		r.Served, r.Rejected, r.Unavailable, r.Errored, r.Correct, r.Degraded, r.Incorrect,
		r.SpotGraded, r.SpotViolations, float64(r.SpotMaxStretchMilli)/1000,
		r.ChurnRounds, r.Partitions, r.Corruptions, r.Truncations,
		r.CrashRestarts, r.WalRecovered, r.RecoveryResyncs,
		r.Promoted, r.FinalEpoch, r.Resyncs, r.MaxReplayLag, r.SettleTimeouts,
		time.Duration(r.FailoverNs), r.ResyncBytes, r.MatrixBytes,
		r.DigestsConverged, r.TablesIdentical)
}

// Cluster-run failure modes.
var (
	ErrDiverged = errors.New("chaos: cluster members diverged at quiesce")
	ErrFailover = errors.New("chaos: cluster did not recover from primary kill")
	ErrRecovery = errors.New("chaos: primary crash-restart did not recover via WAL")
)

// clusterHarness is one run's mutable state.
type clusterHarness struct {
	cfg     ClusterConfig
	tier    clusterTier
	strict  bool // full tier: grade every answer strictly, not by spot sample
	srvOpts serve.ServerOptions
	grader

	primary  *cluster.Primary // the current primary
	p0       *cluster.Primary // member-0's current incarnation (replaced on restart)
	members  []*member        // members[0] is the initial primary
	replicas []*cluster.Replica
	sources  []*chaosSource // per replica
	router   *cluster.Router
	inj      *faultinject.Injector
	graders  []*spotgrade.Grader // every spot grader ever bound (tables tier)
	toggles  [][2]int            // tables-tier churn pool

	// Member-0's durable WAL: a power-loss-modelling MemFS seen through a
	// fault-injecting wrapper the crash phase arms to tear one append.
	walFS    *faultinject.MemFS
	walFault *faultinject.FaultFS

	churnDone       int
	partitions      int
	truncations     int
	settleTimeouts  int
	promoted        bool
	failoverNs      int64
	maxLag          uint64
	crashRestarts   int
	walRecovered    bool
	recoveryResyncs uint64
}

// SetPeerDown implements faultinject.PeerTarget: peer i is replica i,
// severed from both its feed and its clients.
func (h *clusterHarness) SetPeerDown(peer int, isDown bool) error {
	if peer < 0 || peer >= len(h.replicas) {
		return fmt.Errorf("chaos: partition of unknown peer %d", peer)
	}
	h.members[peer+1].gate.down.Store(isDown)
	if isDown {
		h.partitions++
	}
	return nil
}

// SetLinkDown and SetNodeDown satisfy faultinject.Target; the partition plan
// contains only peer events (topology churn goes through the primary), so
// these must never fire.
func (h *clusterHarness) SetLinkDown(u, v int, isDown bool) error {
	return fmt.Errorf("chaos: unexpected link fault (%d,%d) in partition plan", u, v)
}
func (h *clusterHarness) SetNodeDown(u int, isDown bool) error {
	return fmt.Errorf("chaos: unexpected node fault %d in partition plan", u)
}

// RunCluster executes one cluster chaos run. The report is complete even on
// failure; the error names the broken invariant.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	if cfg.Scheme == "" {
		cfg.Scheme = "fulltable"
	}
	tierName := serve.TierFull
	switch {
	case !serve.KnownScheme(cfg.Scheme):
		return nil, fmt.Errorf("chaos: unknown scheme %q", cfg.Scheme)
	case serve.TableCapable(cfg.Scheme):
		tierName = serve.TierTables
	case !serve.IsShortestPath(cfg.Scheme):
		return nil, fmt.Errorf("chaos: scheme %q is not shortest-path; strict grading needs stretch 1", cfg.Scheme)
	}
	tier := clusterTiers[tierName]
	if cfg.N < 8 {
		cfg.N = tier.n
	}
	if cfg.AvgDeg <= 0 {
		cfg.AvgDeg = 8
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Lookups == 0 {
		cfg.Lookups = tier.lookups
	}
	if cfg.Workers < 1 {
		cfg.Workers = tier.workers
	}

	h := &clusterHarness{cfg: cfg, tier: tier, strict: tierName == serve.TierFull,
		srvOpts: serve.ServerOptions{Shards: 2, QueueCap: cfg.Workers * 4}}

	// Member-0 journals every publication to a durable WAL (fsync=always)
	// behind a fault-injection wrapper; the crash phase tears an append
	// mid-frame and restarts the primary cold over the surviving bytes.
	h.walFS = faultinject.NewMemFS()
	var err error
	h.walFault, err = faultinject.NewFaultFS(h.walFS, faultinject.DiskFaultConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	p, _, err := h.boot(h.walFault)
	if err != nil {
		return nil, err
	}
	h.primary, h.p0 = p, p
	defer func() {
		for _, r := range h.replicas {
			r.Close()
		}
		h.primary.Close()
		closePrimary(h.p0, false)
	}()
	snap := p.Engine().Current()
	if !h.strict {
		if err := checkSubQuadratic(snap); err != nil {
			return nil, err
		}
		if h.toggles = absentEdges(snap.Graph, 8); len(h.toggles) == 0 {
			return nil, errors.New("chaos: no absent edges to churn (topology is complete)")
		}
	}
	pm := &member{name: "member-0", gate: &gate{}}
	pm.srv.Store(p.Server())
	h.bindGrader(pm, p.Engine())
	h.members = append(h.members, pm)

	for i := 0; i < cfg.Replicas; i++ {
		cs := &chaosSource{target: p, gate: &gate{}, rng: rand.New(rand.NewSource(cfg.Seed*7919 + int64(i)))}
		r, err := cluster.JoinReplica(cs, cluster.ReplicaOptions{
			Server:       h.srvOpts,
			SyncInterval: tier.syncInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: replica %d join: %w", i, err)
		}
		r.Start()
		rm := &member{name: fmt.Sprintf("member-%d", i+1), gate: cs.gate}
		rm.srv.Store(r.Server())
		h.bindGrader(rm, r.Engine())
		h.replicas = append(h.replicas, r)
		h.sources = append(h.sources, cs)
		h.members = append(h.members, rm)
	}

	backends := make([]cluster.Backend, len(h.members))
	for i, m := range h.members {
		backends[i] = m
	}
	h.router = cluster.NewRouter(backends, cluster.RouterOptions{
		HedgeAfter: 500 * time.Microsecond,
		ProbeAfter: 2 * time.Millisecond,
	})

	// Partition plan: every replica isolated once, healed partitionHealAfter
	// ticks later, on a deterministic schedule.
	plan, err := faultinject.RandomPartitionPlan(faultinject.PartitionConfig{
		Peers:       cfg.Replicas,
		IsolateProb: 0.999, // isolate every replica exactly once
		Horizon:     max(cfg.Replicas, 1),
		HealAfter:   partitionHealAfter,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	h.inj, err = faultinject.New(faultinject.Config{Seed: cfg.Seed}, plan)
	if err != nil {
		return nil, err
	}
	h.inj.Bind(h)

	elapsed, phaseErr := loop{
		n: cfg.N, workers: cfg.Workers, batch: 1, seed: cfg.Seed, lookups: cfg.Lookups,
		answered: &h.answered, maxBackoff: time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			res, err := h.router.Lookup(pairs[0][0], pairs[0][1])
			return h.judge(&res, err), nil
		},
	}.run(h.buildPhases())
	return h.quiesce(elapsed, phaseErr)
}

// boot builds member-0's serving stack from the initial topology and
// recovers its durable WAL from fs forward: a fresh start and a cold restart
// after kill -9 are the same code path.
func (h *clusterHarness) boot(fs faultinject.FS) (*cluster.Primary, *cluster.RecoveryReport, error) {
	rng := rand.New(rand.NewSource(h.cfg.Seed))
	var g *graph.Graph
	var err error
	newEngine := serve.NewEngine
	if h.strict {
		g, err = gengraph.GnHalf(h.cfg.N, rng)
	} else {
		g, err = gengraph.SparseConnected(h.cfg.N, h.cfg.AvgDeg, rng)
		newEngine = serve.NewTieredEngine
	}
	if err != nil {
		return nil, nil, err
	}
	eng, err := newEngine(g, h.cfg.Scheme)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewServer(eng, h.srvOpts)
	rep := serve.NewRepairer(srv, serve.RepairOptions{})
	log, rpt, err := cluster.RecoverPrimaryLog(eng, rep, cluster.RecoverConfig{Dir: "wal", FS: fs})
	if err == nil {
		var p *cluster.Primary
		if p, err = cluster.NewPrimaryAt(eng, srv, rep, rpt.Epoch, log); err == nil {
			return p, rpt, nil
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

// bindGrader points m's spot grader at eng (tables tier only; the full tier
// grades every answer strictly at the router).
func (h *clusterHarness) bindGrader(m *member, eng *serve.Engine) {
	if h.strict {
		return
	}
	g := spotgrade.New(eng, spotgrade.Config{Seed: h.cfg.Seed, SampleEvery: 1})
	h.graders = append(h.graders, g)
	m.grader.Store(g)
}

// judge grades one routed answer — strictly on the full tier; on the tables
// tier the members' spot graders judge it — and returns the backoff it
// asked for.
func (h *clusterHarness) judge(res *serve.Result, err error) time.Duration {
	if h.strict {
		return h.grade(res, err)
	}
	backoff, _ := h.count(res, err)
	return backoff
}

// churn publishes one deterministic topology change through the primary. On
// the tables tier the round's toggle edge is added if absent and removed if
// present — every churn a full landmark rebuild on each member.
func (h *clusterHarness) churn(round int) error {
	var err error
	if h.strict {
		err = h.churnFull(round)
	} else {
		_, err = h.primary.Mutate(toggle(h.toggles[round%len(h.toggles)]))
	}
	if err != nil {
		return err
	}
	h.churnDone++
	return nil
}

// churnFull is the full tier's churn: even rounds toggle an existing edge via
// Mutate (never disconnecting), odd rounds run a link fail + heal cycle
// through the repairer (exercising RecLink shipping and overlay
// reconciliation on replicas).
func (h *clusterHarness) churnFull(round int) error {
	edges := h.primary.Engine().Current().Graph.Edges()
	if len(edges) == 0 {
		return errors.New("chaos: topology ran out of edges")
	}
	e := edges[(round*2654435761)%len(edges)]
	if round%2 == 1 {
		if err := h.primary.SetLinkDown(e[0], e[1], true); err != nil {
			return err
		}
		return h.primary.SetLinkDown(e[0], e[1], false)
	}
	_, err := h.primary.Mutate(func(gr *graph.Graph) error {
		if !gr.HasEdge(e[0], e[1]) {
			return gr.AddEdge(e[0], e[1])
		}
		if err := gr.RemoveEdge(e[0], e[1]); err != nil {
			return err
		}
		if !gr.IsConnected() {
			return gr.AddEdge(e[0], e[1]) // keep connected: no-op round
		}
		return nil
	})
	return err
}

// sampleLag folds the replicas' current replay lag into the running max.
func (h *clusterHarness) sampleLag() {
	for _, r := range h.replicas {
		if _, _, lag := r.Stats(); lag > h.maxLag {
			h.maxLag = lag
		}
	}
}

// settle waits for every live replica to catch up with the current primary,
// counting a wait that runs out its deadline (convergence is verified for
// real at quiesce).
func (h *clusterHarness) settle() {
	until := time.Now().Add(h.tier.settle)
	for {
		h.sampleLag()
		pd, err := h.primary.FetchDigest()
		if err != nil {
			return
		}
		ok := true
		for _, r := range h.liveReplicas() {
			if r.Digest() != pd {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(until) {
			h.settleTimeouts++
			return
		}
		time.Sleep(h.tier.syncInterval)
	}
}

// buildPhases lays out the deterministic injection schedule: churn warmup, a
// kill -9 of the primary recovered from its WAL, a partition +
// churn-under-partition + heal cycle per replica, a WAL corruption, a
// truncation under lag, the primary kill + promotion, then final churn on the
// new primary.
func (h *clusterHarness) buildPhases() []phase {
	round := 0
	churnN := func(k int) error {
		for i := 0; i < k; i++ {
			if err := h.churn(round); err != nil {
				return err
			}
			round++
		}
		h.sampleLag()
		return nil
	}
	burst := h.tier.churnBurst
	churnSettle := func() error {
		if err := churnN(burst); err != nil {
			return err
		}
		h.settle()
		return nil
	}

	ps := []phase{{name: "churn warmup", run: func() error { return churnN(burst) }}}

	// The crash restart runs early: a cold restart replays the WAL from seq 1
	// over the initial topology, one full rebuild per record, so the log
	// must still be whole (before the truncation phase) and is best short.
	ps = append(ps, phase{name: "primary crash + WAL recovery", run: func() error {
		if err := h.crashRestart(func() error { return churnN(1) }); err != nil {
			return err
		}
		return churnN(1)
	}})

	// One injector tick per scheduled partition event; churn continues while
	// members are cut off, forcing real catch-up on heal.
	for t := 0; t <= h.cfg.Replicas+partitionHealAfter+1; t++ {
		tick := t
		ps = append(ps, phase{name: fmt.Sprintf("partition tick %d", tick), run: func() error {
			if err := h.inj.AdvanceTo(tick); err != nil {
				return err
			}
			return churnN(1)
		}})
	}
	ps = append(ps, phase{name: "heal partitions", run: func() error {
		if err := h.inj.Finish(); err != nil {
			return err
		}
		h.settle()
		return nil
	}})

	for c := 0; c < clusterCorruptions; c++ {
		idx := c % len(h.sources)
		ps = append(ps, phase{name: fmt.Sprintf("wal corruption replica %d", idx), run: func() error {
			h.sources[idx].armCorruption(true)
			if err := churnN(1); err != nil {
				return err
			}
			h.settle()
			return nil
		}})
	}

	for tr := 0; tr < clusterTruncations; tr++ {
		ps = append(ps, phase{name: "wal truncation", run: func() error {
			if err := churnN(burst); err != nil {
				return err
			}
			// Drop the whole log: any replica that has not pulled yet gets
			// ErrGone and must fall back to a state fetch.
			h.primary.Log().TruncateTo(h.primary.Log().LastSeq())
			h.truncations++
			h.settle()
			return nil
		}})
	}

	if !h.cfg.SkipKill {
		ps = append(ps, phase{name: "primary kill + promotion", run: h.killPromote})
	}
	return append(ps, phase{name: "final churn", run: churnSettle})
}

// crashRestart is the kill -9 phase: arm the WAL disk to tear the next
// append mid-frame, publish one churn round into the tear, kill the primary
// without any flush, then restart it cold over the surviving bytes. Recovery
// must resume the same epoch with a byte-identical table, and the replicas —
// severed from the feed for the instant of the crash, exactly like clients
// of a dying process — must catch up via WAL replay with zero full resyncs.
func (h *clusterHarness) crashRestart(tornChurn func() error) error {
	h.settle()
	preDigest, err := h.primary.FetchDigest()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	pre := make([]uint64, len(h.replicas))
	for i, r := range h.replicas {
		_, pre[i], _ = r.Stats()
	}

	// Sever replication feeds (not client traffic): a record whose append is
	// about to tear must never be handed to a replica — in a real kill -9
	// the process dies before answering the next pull.
	for _, cs := range h.sources {
		cs.feedDown.Store(true)
	}
	h.walFault.CrashAt(h.walFault.WrittenBytes() + 6)
	if err := tornChurn(); err != nil {
		return fmt.Errorf("%w: churn into the tear: %v", ErrRecovery, err)
	}
	if !h.walFault.Crashed() {
		return fmt.Errorf("%w: armed disk crash did not fire", ErrRecovery)
	}

	// kill -9: clients lose member-0; nothing is flushed or finalised.
	h.members[0].gate.down.Store(true)
	oldEpoch := h.primary.Epoch()
	closePrimary(h.p0, true)

	// Cold restart over the same disk: the reboot heals the injected fault
	// (reads and writes work again) but not the torn bytes.
	np, rpt, err := h.boot(h.walFS)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	h.primary, h.p0 = np, np
	if rpt.EpochBumped || rpt.Epoch != oldEpoch {
		return fmt.Errorf("%w: epoch %d -> %d (bumped=%v): %s", ErrRecovery, oldEpoch, rpt.Epoch, rpt.EpochBumped, rpt.Reason)
	}
	if postDigest, err := np.FetchDigest(); err != nil || postDigest != preDigest {
		return fmt.Errorf("%w: digest %+v after recovery (err %v), want %+v", ErrRecovery, postDigest, err, preDigest)
	}

	h.members[0].srv.Store(np.Server())
	h.bindGrader(h.members[0], np.Engine())
	for _, cs := range h.sources {
		cs.setTarget(np)
		cs.feedDown.Store(false)
	}
	h.members[0].gate.down.Store(false)
	h.crashRestarts++
	h.walRecovered = true

	// Replicas must converge on the restarted primary via WAL replay alone.
	h.settle()
	for i, r := range h.replicas {
		_, rs, _ := r.Stats()
		h.recoveryResyncs += rs - pre[i]
	}
	if h.recoveryResyncs > 0 {
		return fmt.Errorf("%w: %d full resyncs after restart", ErrRecovery, h.recoveryResyncs)
	}
	return nil
}

// killPromote kills the primary (unreachable to clients and replicas,
// publish hook detached), promotes replica 0 under a bumped epoch, points the
// surviving replicas at it, and measures kill → first routed answer after
// promotion as the failover latency.
func (h *clusterHarness) killPromote() error {
	h.settle()
	start := time.Now()
	h.members[0].gate.down.Store(true)
	h.primary.Close()

	np, err := h.replicas[0].Promote()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFailover, err)
	}
	// The promoted member keeps serving through its existing server, now as
	// primary. Surviving replicas re-point their feed (a membership change)
	// and will observe the epoch bump and resync; the dead member's backend
	// stays down and the router steers around it.
	h.primary = np
	h.promoted = true
	for i := 1; i < len(h.replicas); i++ {
		h.sources[i].setTarget(np)
	}
	for {
		res, err := h.router.Lookup(1, 2)
		h.judge(&res, err)
		if err == nil && res.Err == nil {
			break
		}
		if time.Since(start) > h.tier.settle {
			return fmt.Errorf("%w: no routed answer %v after kill", ErrFailover, time.Since(start))
		}
		time.Sleep(100 * time.Microsecond)
	}
	h.failoverNs = time.Since(start).Nanoseconds()
	h.settle()
	return nil
}

// quiesce forces every replica through a final sync against the current
// primary, proves convergence, and assembles the graded report.
func (h *clusterHarness) quiesce(elapsed time.Duration, phaseErr error) (*ClusterReport, error) {
	cfg := h.cfg
	for _, cs := range h.sources {
		cs.gate.down.Store(false)
	}
	live := h.liveReplicas()
	for _, r := range live {
		_ = r.Sync() // a failed pull shows up in the convergence check below
	}
	h.settle()

	converged, _, entErr := cluster.CheckEntropy(h.primary, live...)
	if entErr != nil && phaseErr == nil {
		phaseErr = entErr
	}
	finalSnap := h.primary.Engine().Current()
	want := tableBytes(finalSnap)
	identical := true
	for _, r := range live {
		if !bytes.Equal(tableBytes(r.Engine().Current()), want) {
			identical = false
		}
	}

	var resyncs uint64
	for _, r := range h.replicas {
		_, rs, _ := r.Stats()
		resyncs += rs
	}
	corruptions := 0
	for _, cs := range h.sources {
		corruptions += cs.corruptions()
	}
	spot, firstSpotErr := spotTotals(h.graders)

	// Resync economics: what a joining member receives on this tier versus
	// the n² matrix a full-tier resync at the same n has to ship.
	resyncBytes := 0
	if st, err := h.primary.FetchState(); err == nil {
		var buf bytes.Buffer
		if cluster.EncodeState(&buf, st) == nil {
			resyncBytes = buf.Len()
		}
	}

	rep := &ClusterReport{
		Scheme:             cfg.Scheme,
		Tier:               finalSnap.Tier,
		N:                  cfg.N,
		Seed:               cfg.Seed,
		Members:            len(h.members),
		Lookups:            h.answered.Load(),
		Served:             h.served.Load(),
		Rejected:           h.rejected.Load(),
		Unavailable:        h.unavailable.Load(),
		Errored:            h.errored.Load(),
		Correct:            h.correct.Load(),
		Degraded:           h.degraded.Load(),
		Incorrect:          h.incorrect.Load(),
		MaxDetourExtraHops: h.maxExtra.Load(),
		SpotTotals:         spot,
		ChurnRounds:        h.churnDone,
		Partitions:         h.partitions,
		Corruptions:        corruptions,
		Truncations:        h.truncations,
		Promoted:           h.promoted,
		FinalEpoch:         h.primary.Epoch(),
		Resyncs:            resyncs,
		MaxReplayLag:       h.maxLag,
		SettleTimeouts:     h.settleTimeouts,
		CrashRestarts:      h.crashRestarts,
		WalRecovered:       h.walRecovered,
		RecoveryResyncs:    h.recoveryResyncs,
		SnapshotBytes:      finalSnap.ArenaSize(),
		ResyncBytes:        resyncBytes,
		MatrixBytes:        uint64(cfg.N) * uint64(cfg.N),
		FailoverNs:         h.failoverNs,
		DigestsConverged:   converged,
		TablesIdentical:    identical,
		Elapsed:            elapsed,
	}
	if lm, ok := finalSnap.SchemeImpl().(interface{ K() int }); ok {
		rep.Landmarks = lm.K()
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Lookups) / elapsed.Seconds()
	}
	if rep.Lookups > 0 {
		rep.AvailabilityPct = 100 * float64(rep.Served) / float64(rep.Lookups)
	}
	for name, n := range h.router.Served() {
		ms := MemberStats{Name: name, Served: n}
		if elapsed > 0 {
			ms.QPS = float64(n) / elapsed.Seconds()
		}
		rep.PerMember = append(rep.PerMember, ms)
	}
	sortMembers(rep.PerMember)

	unserved := rep.Lookups - rep.Served
	switch {
	case phaseErr != nil:
		return rep, phaseErr
	case rep.Incorrect > 0:
		return rep, fmt.Errorf("%w: %d of %d", ErrIncorrect, rep.Incorrect, rep.Lookups)
	case rep.MaxDetourExtraHops > 2:
		return rep, fmt.Errorf("%w: +%d hops", ErrDetourBudget, rep.MaxDetourExtraHops)
	case rep.SpotViolations > 0:
		return rep, fmt.Errorf("%w: %v", ErrIncorrect, firstSpotErr)
	case !h.strict && rep.SpotGraded == 0:
		return rep, fmt.Errorf("chaos: no answers were spot-graded (lookups=%d)", rep.Lookups)
	case float64(unserved) > h.tier.budget*float64(rep.Lookups):
		return rep, fmt.Errorf("%w: %d of %d unserved (budget %.1f%%)",
			ErrBudget, unserved, rep.Lookups, 100*h.tier.budget)
	case !converged || !identical:
		return rep, fmt.Errorf("%w: digests converged=%v, tables identical=%v", ErrDiverged, converged, identical)
	case !rep.WalRecovered:
		return rep, ErrRecovery
	case !cfg.SkipKill && !rep.Promoted:
		return rep, ErrFailover
	}
	return rep, nil
}

// tableBytes is what members must agree on byte for byte at quiesce: the
// packed distance matrix on the full tier, the encoded scheme tables on the
// tables tier.
func tableBytes(s *serve.Snapshot) []byte {
	if s.Dist != nil {
		return s.Dist.Packed()
	}
	return s.TablesBytes()
}

// liveReplicas returns the replicas still following (excluding replica 0
// once it is promoted to primary).
func (h *clusterHarness) liveReplicas() []*cluster.Replica {
	if h.promoted {
		return h.replicas[1:]
	}
	return h.replicas
}

// ClusterCSVHeader is the docs/cluster artefact header row (EXPERIMENTS.md
// E16 and E20): one layout for both tiers.
const ClusterCSVHeader = "scheme,tier,n,seed,members,landmarks,lookups,served,rejected,unavailable,errored,correct,degraded,incorrect,availability_pct,spot_graded,spot_violations,spot_max_stretch_milli,churn_rounds,partitions,corruptions,truncations,promoted,final_epoch,resyncs,max_replay_lag,settle_timeouts,failover_ns,snapshot_bytes,resync_bytes,matrix_bytes,digests_converged,tables_identical,qps"

// WriteClusterCSV renders cluster reports in the artefact layout.
func WriteClusterCSV(w io.Writer, reports []*ClusterReport) error {
	if _, err := fmt.Fprintln(w, ClusterCSVHeader); err != nil {
		return err
	}
	for _, r := range reports {
		_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%v,%d,%d,%d,%d,%d,%d,%d,%d,%v,%v,%.0f\n",
			r.Scheme, r.Tier, r.N, r.Seed, r.Members, r.Landmarks, r.Lookups, r.Served,
			r.Rejected, r.Unavailable, r.Errored, r.Correct, r.Degraded, r.Incorrect,
			r.AvailabilityPct, r.SpotGraded, r.SpotViolations, r.SpotMaxStretchMilli,
			r.ChurnRounds, r.Partitions, r.Corruptions, r.Truncations, r.Promoted,
			r.FinalEpoch, r.Resyncs, r.MaxReplayLag, r.SettleTimeouts, r.FailoverNs,
			r.SnapshotBytes, r.ResyncBytes, r.MatrixBytes,
			r.DigestsConverged, r.TablesIdentical, r.QPS)
		if err != nil {
			return err
		}
	}
	return nil
}
