// Shard chaos: the partitioned-cluster gate. A sharded tables-tier cluster —
// the keyspace split across shard groups by a versioned shard map, each group
// an ordinary primary/replica pair — serves a sparse topology past the
// all-pairs ceiling while the harness races a live shard split against churn
// bursts, partitions each group's replica, bit-flips a WAL batch on the wire,
// and kills a shard primary recovered by in-group promotion.
//
// Grading is two-layered. Continuously, every member carries a
// spotgrade.Grader over its own restricted engine: reachability, real
// neighbour next hops, and the two-sided d ≤ est ≤ 3d estimate bound are
// asserted against the member's own snapshot, so replica staleness and
// mid-split races cannot cause false verdicts. At quiesce — after every group
// has converged and the groups' topologies are proven byte-identical — full
// routes are walked end to end through the scatter-gather front, each hop
// resolved by the shard owning it, and must deliver within the stretch-3
// budget. One incorrect answer, one stretch violation, a shard below its
// availability floor, or any divergence fails the run.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	"routetab/internal/shortestpath"
)

// ErrSplit reports a live shard split that did not complete (or was expected
// and never ran).
var ErrSplit = errors.New("chaos: shard split did not complete")

// ShardConfig parameterises one partitioned-cluster chaos run.
type ShardConfig struct {
	// N is the sparse topology size (default 4096).
	N int
	// AvgDeg is the topology's target average degree (default 8).
	AvgDeg float64
	// Groups is the initial shard-group count (default 2).
	Groups int
	// Replicas is the replica count per group (default 1 — each group a
	// primary/replica pair).
	Replicas int
	// Seed keys the topology, shard map, query streams, churn, and corruption.
	Seed int64
	// Lookups is the total front-door lookup target across workers (default
	// 20_000).
	Lookups uint64
	// Workers is the closed-loop client count (default 4).
	Workers int
	// SkipSplit disables the live split phase.
	SkipSplit bool
	// SkipKill disables the shard-primary kill + promotion phase.
	SkipKill bool
}

// The fixed parts of the shard fault schedule.
const (
	// shardCorruptions is how many replica WAL fetches are bit-flipped on
	// the wire; each must end in a clean state-fetch fallback.
	shardCorruptions = 1
	// splitGroup is the group the live split carves from, and killGroup the
	// group whose primary is killed.
	splitGroup, killGroup = 0, 0
	// minShardAvailability is the per-shard availability floor at quiesce.
	minShardAvailability = 0.99
	// shardSyncInterval paces the replication pump.
	shardSyncInterval = time.Millisecond
	// walkSamples is how many full cross-shard route walks are graded per
	// group at quiesce.
	walkSamples = 8
)

func (c *ShardConfig) setDefaults() {
	if c.N < 8 {
		c.N = 4096
	}
	if c.AvgDeg <= 0 {
		c.AvgDeg = 8
	}
	if c.Groups < 2 {
		c.Groups = 2
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Lookups == 0 {
		c.Lookups = 20_000
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
}

// ShardStats is one shard group's record at quiesce.
type ShardStats struct {
	Group           int     `json:"group"`
	Served          uint64  `json:"served"`
	Failed          uint64  `json:"failed"`
	AvailabilityPct float64 `json:"availability_pct"`
	// ResyncBytes is the encoded replication state one replica of this shard
	// receives on a join or resync — the payload the keyspace split shrinks.
	ResyncBytes int `json:"resync_bytes"`
}

// ShardReport is one partitioned-cluster chaos run's graded outcome.
type ShardReport struct {
	N           int   `json:"n"`
	Seed        int64 `json:"seed"`
	Groups      int   `json:"groups"`
	FinalGroups int   `json:"final_groups"`
	Replicas    int   `json:"replicas"`
	Members     int   `json:"members"`

	Lookups     uint64 `json:"lookups"`
	Served      uint64 `json:"served"`
	Rejected    uint64 `json:"rejected"`
	Unavailable uint64 `json:"unavailable"`
	Errored     uint64 `json:"errored"`

	SpotTotals
	WalksGraded int `json:"walks_graded"`

	ChurnRounds int    `json:"churn_rounds"`
	Partitions  int    `json:"partitions"`
	Corruptions int    `json:"corruptions"`
	SplitDone   bool   `json:"split_done"`
	SplitNs     int64  `json:"split_ns"`
	MapEpoch    uint64 `json:"map_epoch"`
	Promoted    bool   `json:"promoted"`
	FailoverNs  int64  `json:"failover_ns"`

	Resyncs      uint64 `json:"resyncs"`
	MaxReplayLag uint64 `json:"max_replay_lag"`

	AvailabilityPct         float64       `json:"availability_pct"`
	MinShardAvailabilityPct float64       `json:"min_shard_availability_pct"`
	PerShard                []ShardStats  `json:"per_shard"`
	DigestsConverged        bool          `json:"digests_converged"`
	TablesIdentical         bool          `json:"tables_identical"`
	TopologiesEqual         bool          `json:"topologies_equal"`
	Elapsed                 time.Duration `json:"elapsed_ns"`
	QPS                     float64       `json:"qps"`
}

// String renders the headline figures.
func (r *ShardReport) String() string {
	return fmt.Sprintf("shard n=%d groups=%d→%d replicas=%d: %d lookups (%.0f qps), %.3f%% available (worst shard %.3f%%), spot graded=%d violations=%d max stretch %.3f, %d walks, %d churn rounds, %d partitions, %d corruptions, split=%v in %v epoch=%d, promoted=%v failover %v, resyncs=%d lag≤%d, digests converged=%v tables identical=%v topologies equal=%v",
		r.N, r.Groups, r.FinalGroups, r.Replicas, r.Lookups, r.QPS,
		r.AvailabilityPct, r.MinShardAvailabilityPct,
		r.SpotGraded, r.SpotViolations, float64(r.SpotMaxStretchMilli)/1000,
		r.WalksGraded, r.ChurnRounds, r.Partitions, r.Corruptions,
		r.SplitDone, time.Duration(r.SplitNs), r.MapEpoch,
		r.Promoted, time.Duration(r.FailoverNs), r.Resyncs, r.MaxReplayLag,
		r.DigestsConverged, r.TablesIdentical, r.TopologiesEqual)
}

// shardHarness is one run's mutable state.
type shardHarness struct {
	cfg ShardConfig
	tally

	mu      sync.Mutex
	gates   map[string]*gate
	members map[string]*member
	sources map[string]*chaosSource
	nsrc    int64

	c     *shard.Cluster
	front *shard.Router

	toggles [][2]int

	churnDone  int
	partitions int
	splitDone  bool
	splitNs    int64
	newGroupID int
	promoted   bool
	failoverNs int64
	maxLag     atomic.Uint64
}

// gateFor returns member name's gate, creating it on first use — the same
// gate severs the member's replication feed and its client traffic, like a
// real partition.
func (h *shardHarness) gateFor(name string) *gate {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.gates[name]
	if g == nil {
		g = &gate{}
		h.gates[name] = g
	}
	return g
}

// bindGraders attaches a spot grader over each of group id's members' own
// engines (idempotent; members already bound keep their grader).
func (h *shardHarness) bindGraders(id int) {
	grp := h.c.Group(id)
	if grp == nil {
		return
	}
	bind := func(name string, eng *serve.Engine) {
		h.mu.Lock()
		m := h.members[name]
		h.mu.Unlock()
		if m != nil && m.grader.Load() == nil {
			m.grader.Store(spotgrade.New(eng, spotgrade.Config{Seed: h.cfg.Seed, SampleEvery: 1}))
		}
	}
	bind(fmt.Sprintf("g%d-m0", id), grp.Primary.Engine())
	for i, r := range grp.Replicas() {
		bind(fmt.Sprintf("g%d-m%d", id, i+1), r.Engine())
	}
}

// RunShard executes one partitioned-cluster chaos run. The report is complete
// even on failure; the error names the broken invariant.
func RunShard(cfg ShardConfig) (*ShardReport, error) {
	cfg.setDefaults()
	g, err := gengraph.SparseConnected(cfg.N, cfg.AvgDeg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	m, err := shard.NewUniform(cfg.N, cfg.Groups)
	if err != nil {
		return nil, err
	}

	h := &shardHarness{
		cfg:     cfg,
		gates:   make(map[string]*gate),
		members: make(map[string]*member),
		sources: make(map[string]*chaosSource),
	}
	h.toggles = absentEdges(g, 8)
	if len(h.toggles) == 0 {
		return nil, errors.New("chaos: no absent edges to churn (topology is complete)")
	}

	c, err := shard.NewCluster(g, m, shard.ClusterOptions{
		Replicas: cfg.Replicas,
		Server:   serve.ServerOptions{Shards: 2, QueueCap: cfg.Workers * 4, StretchSampleEvery: -1},
		Replica:  cluster.ReplicaOptions{SyncInterval: shardSyncInterval},
		GroupRouter: cluster.RouterOptions{
			HedgeAfter: 500 * time.Microsecond,
			ProbeAfter: 2 * time.Millisecond,
		},
		Front: shard.RouterOptions{Seed: cfg.Seed},
		WrapSource: func(group int, name string, s cluster.Source) cluster.Source {
			cs := &chaosSource{target: s, gate: h.gateFor(name)}
			h.mu.Lock()
			cs.rng = rand.New(rand.NewSource(cfg.Seed*7919 + h.nsrc))
			h.nsrc++
			h.sources[name] = cs
			h.mu.Unlock()
			return cs
		},
		WrapBackend: func(group int, name string, b cluster.Backend) cluster.Backend {
			sm := &member{name: name, gate: h.gateFor(name), inner: b}
			h.mu.Lock()
			h.members[name] = sm
			h.mu.Unlock()
			return sm
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	h.c, h.front = c, c.Front()
	for _, id := range c.GroupIDs() {
		h.bindGraders(id)
	}
	return h.drive()
}

// churn publishes one deterministic topology toggle through every group
// primary in lockstep; each costs a full restricted rebuild per member.
func (h *shardHarness) churn(round int) error {
	if err := h.c.Mutate(toggle(h.toggles[round%len(h.toggles)])); err != nil {
		return err
	}
	h.churnDone++
	return nil
}

// sampleLag folds every replica's replay lag into the running max.
func (h *shardHarness) sampleLag() {
	for _, id := range h.c.GroupIDs() {
		grp := h.c.Group(id)
		if grp == nil {
			continue
		}
		for _, r := range grp.Replicas() {
			if _, _, lag := r.Stats(); lag > h.maxLag.Load() {
				h.maxLag.Store(lag)
			}
		}
	}
}

// settle waits (bounded) for every group to converge; convergence is verified
// for real at quiesce.
func (h *shardHarness) settle(deadline time.Duration) {
	until := time.Now().Add(deadline)
	for time.Now().Before(until) {
		if ok, err := h.c.CheckEntropy(); err == nil && ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// buildPhases lays out the injection schedule: churn warmup, a partition +
// churn + heal cycle per initial group's replica, a wire corruption forcing a
// state-fetch fallback, the live split racing a churn burst, the shard-primary
// kill + promotion, then final churn across the grown cluster.
func (h *shardHarness) buildPhases() []phase {
	initial := h.c.GroupIDs()
	round := 0
	churnN := func(k int) func() error {
		return func() error {
			for i := 0; i < k; i++ {
				if err := h.churn(round); err != nil {
					return err
				}
				round++
			}
			return nil
		}
	}

	var ps []phase
	ps = append(ps, phase{name: "churn warmup", run: func() error {
		if err := churnN(2)(); err != nil {
			return err
		}
		h.settle(10 * time.Second)
		return nil
	}})

	for _, id := range initial {
		name := fmt.Sprintf("g%d-m1", id)
		ps = append(ps, phase{name: fmt.Sprintf("partition %s", name), run: func() error {
			h.gateFor(name).down.Store(true)
			h.partitions++
			if err := churnN(1)(); err != nil {
				return err
			}
			time.Sleep(4 * shardSyncInterval)
			h.gateFor(name).down.Store(false)
			h.settle(10 * time.Second)
			return nil
		}})
	}

	for c := 0; c < shardCorruptions; c++ {
		name := fmt.Sprintf("g%d-m1", initial[c%len(initial)])
		ps = append(ps, phase{name: fmt.Sprintf("wire corruption %s", name), run: func() error {
			h.mu.Lock()
			cs := h.sources[name]
			h.mu.Unlock()
			if cs == nil {
				return fmt.Errorf("chaos: no replication source for %s", name)
			}
			cs.armCorruption(true)
			if err := churnN(1)(); err != nil {
				return err
			}
			h.settle(10 * time.Second)
			return nil
		}})
	}

	if !h.cfg.SkipSplit {
		ps = append(ps, phase{name: "split racing churn", run: func() error {
			var churnErr error
			stopChurn := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stopChurn:
						return
					default:
					}
					if err := h.churn(i); err != nil {
						churnErr = err
						return
					}
					time.Sleep(500 * time.Microsecond)
				}
			}()
			start := time.Now()
			newID, err := h.c.Split(splitGroup)
			close(stopChurn)
			wg.Wait()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSplit, err)
			}
			if churnErr != nil {
				return fmt.Errorf("chaos: churn during split: %w", churnErr)
			}
			h.splitNs = time.Since(start).Nanoseconds()
			h.splitDone, h.newGroupID = true, newID
			h.bindGraders(newID)
			h.settle(10 * time.Second)
			return nil
		}})
	}

	if !h.cfg.SkipKill {
		ps = append(ps, phase{name: "shard primary kill + promotion", run: h.killPromote})
	}

	ps = append(ps, phase{name: "final churn", run: func() error {
		if err := churnN(2)(); err != nil {
			return err
		}
		h.settle(10 * time.Second)
		return nil
	}})
	return ps
}

// killPromote kills one shard's primary (unreachable to clients), promotes
// its first replica under a bumped epoch, and measures kill → first routed
// answer for a key that shard owns.
func (h *shardHarness) killPromote() error {
	h.settle(10 * time.Second)
	id := killGroup
	grp := h.c.Group(id)
	if grp == nil || len(grp.Replicas()) == 0 {
		return fmt.Errorf("%w: group %d has no replica to promote", ErrFailover, id)
	}
	m := h.c.Map()
	probeSrc := 0
	for u := 1; u <= h.cfg.N; u++ {
		if m.GroupFor(u) == id {
			probeSrc = u
			break
		}
	}
	if probeSrc == 0 {
		return fmt.Errorf("%w: group %d owns no keys", ErrFailover, id)
	}
	probeDst := 1
	if probeDst == probeSrc {
		probeDst = 2
	}
	start := time.Now()
	h.gateFor(fmt.Sprintf("g%d-m0", id)).down.Store(true)
	if err := h.c.Promote(id, 0); err != nil {
		return fmt.Errorf("%w: %v", ErrFailover, err)
	}
	h.promoted = true
	for {
		res, err := h.front.Lookup(probeSrc, probeDst)
		h.count(&res, err)
		if err == nil && res.Err == nil {
			break
		}
		if time.Since(start) > 10*time.Second {
			return fmt.Errorf("%w: no routed answer %v after shard kill", ErrFailover, time.Since(start))
		}
		time.Sleep(100 * time.Microsecond)
	}
	h.failoverNs = time.Since(start).Nanoseconds()
	h.settle(10 * time.Second)
	return nil
}

// drive runs the closed-loop workers against the front, a replication pump,
// and the phase controller, then quiesces and grades convergence end to end.
func (h *shardHarness) drive() (*ShardReport, error) {
	cfg := h.cfg
	pumpStop := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		t := time.NewTicker(shardSyncInterval)
		defer t.Stop()
		for {
			select {
			case <-pumpStop:
				return
			case <-t.C:
				_ = h.c.SyncAll()
				h.sampleLag()
			}
		}
	}()

	elapsed, phaseErr := loop{
		n: cfg.N, workers: cfg.Workers, batch: 1, seed: cfg.Seed, lookups: cfg.Lookups,
		answered: &h.answered, maxBackoff: time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			res, err := h.front.Lookup(pairs[0][0], pairs[0][1])
			backoff, _ := h.count(&res, err)
			return backoff, nil
		},
	}.run(h.buildPhases())

	// Quiesce: heal every gate, disarm corruption, stop the pump, then force
	// convergence and prove it.
	h.mu.Lock()
	for _, g := range h.gates {
		g.down.Store(false)
	}
	srcs := make([]*chaosSource, 0, len(h.sources))
	for _, cs := range h.sources {
		srcs = append(srcs, cs)
	}
	h.mu.Unlock()
	for _, cs := range srcs {
		cs.armCorruption(false)
	}
	close(pumpStop)
	pumpWG.Wait()

	converged := false
	until := time.Now().Add(15 * time.Second)
	for time.Now().Before(until) {
		_ = h.c.SyncAll()
		if ok, err := h.c.CheckEntropy(); err == nil && ok {
			converged = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	h.sampleLag()

	// Per-group table identity and cross-group topology lockstep.
	ids := h.c.GroupIDs()
	identical, topoEqual := true, true
	members := 0
	var truth *graph.Graph
	for _, id := range ids {
		grp := h.c.Group(id)
		snap := grp.Primary.Engine().Current()
		members += 1 + len(grp.Replicas())
		if truth == nil {
			truth = snap.Graph
		} else if !sameEdges(truth, snap.Graph) {
			topoEqual = false
		}
		want := snap.TablesBytes()
		for _, r := range grp.Replicas() {
			if !bytes.Equal(r.Engine().Current().TablesBytes(), want) {
				identical = false
			}
		}
	}

	var walked int
	var walkErr error
	if topoEqual && truth != nil {
		walked, walkErr = h.walkGrade(truth)
	}

	// Per-shard availability and resync payloads.
	stats := h.front.Stats()
	minAvail := 1.0
	var perShard []ShardStats
	for _, id := range ids {
		s := stats[id]
		sb, _ := h.c.StateBytes(id)
		perShard = append(perShard, ShardStats{
			Group: id, Served: s.Served, Failed: s.Failed,
			AvailabilityPct: 100 * s.Availability(), ResyncBytes: sb,
		})
		if a := s.Availability(); a < minAvail {
			minAvail = a
		}
	}

	var resyncs uint64
	for _, id := range ids {
		for _, r := range h.c.Group(id).Replicas() {
			_, rs, _ := r.Stats()
			resyncs += rs
		}
	}
	corruptions := 0
	for _, cs := range srcs {
		corruptions += cs.corruptions()
	}

	h.mu.Lock()
	graders := make([]*spotgrade.Grader, 0, len(h.members))
	for _, m := range h.members {
		if g := m.grader.Load(); g != nil {
			graders = append(graders, g)
		}
	}
	h.mu.Unlock()
	spot, firstSpotErr := spotTotals(graders)

	rep := &ShardReport{
		N:                       cfg.N,
		Seed:                    cfg.Seed,
		Groups:                  cfg.Groups,
		FinalGroups:             len(ids),
		Replicas:                cfg.Replicas,
		Members:                 members,
		Lookups:                 h.answered.Load(),
		Served:                  h.served.Load(),
		Rejected:                h.rejected.Load(),
		Unavailable:             h.unavailable.Load(),
		Errored:                 h.errored.Load(),
		SpotTotals:              spot,
		WalksGraded:             walked,
		ChurnRounds:             h.churnDone,
		Partitions:              h.partitions,
		Corruptions:             corruptions,
		SplitDone:               h.splitDone,
		SplitNs:                 h.splitNs,
		MapEpoch:                h.c.Map().Epoch,
		Promoted:                h.promoted,
		FailoverNs:              h.failoverNs,
		Resyncs:                 resyncs,
		MaxReplayLag:            h.maxLag.Load(),
		MinShardAvailabilityPct: 100 * minAvail,
		PerShard:                perShard,
		DigestsConverged:        converged,
		TablesIdentical:         identical,
		TopologiesEqual:         topoEqual,
		Elapsed:                 elapsed,
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Lookups) / elapsed.Seconds()
	}
	if rep.Lookups > 0 {
		rep.AvailabilityPct = 100 * float64(rep.Served) / float64(rep.Lookups)
	}

	switch {
	case phaseErr != nil:
		return rep, phaseErr
	case walkErr != nil:
		return rep, walkErr
	case rep.SpotViolations > 0:
		return rep, fmt.Errorf("%w: %v", ErrIncorrect, firstSpotErr)
	case rep.SpotGraded == 0:
		return rep, fmt.Errorf("chaos: no answers were spot-graded (lookups=%d)", rep.Lookups)
	case rep.WalksGraded == 0:
		return rep, fmt.Errorf("chaos: no quiesce route walks were graded")
	case minAvail < minShardAvailability:
		return rep, fmt.Errorf("%w: worst shard availability %.3f%% (floor %.1f%%)",
			ErrBudget, 100*minAvail, 100*minShardAvailability)
	case !converged || !identical || !topoEqual:
		return rep, fmt.Errorf("%w: digests converged=%v, tables identical=%v, topologies equal=%v",
			ErrDiverged, converged, identical, topoEqual)
	case !cfg.SkipSplit && !rep.SplitDone:
		return rep, ErrSplit
	case !cfg.SkipKill && !rep.Promoted:
		return rep, ErrFailover
	}
	return rep, nil
}

// walkGrade walks full routes end to end through the front at quiesce: for
// each group, sampled owned sources route to random destinations, every hop
// resolved by the shard owning it, every hop a real edge of the converged
// topology, and the whole route within the stretch-3 hop budget.
func (h *shardHarness) walkGrade(truth *graph.Graph) (int, error) {
	rng := rand.New(rand.NewSource(h.cfg.Seed * 31))
	m := h.c.Map()
	bySrc := make(map[int][]int)
	for u := 1; u <= truth.N(); u++ {
		g := m.GroupFor(u)
		if len(bySrc[g]) < walkSamples {
			bySrc[g] = append(bySrc[g], u)
		}
	}
	cache := make(map[int]*shortestpath.BFSResult)
	bfsFrom := func(dst int) (*shortestpath.BFSResult, error) {
		if r, ok := cache[dst]; ok {
			return r, nil
		}
		r, err := shortestpath.BFS(truth, dst)
		if err == nil {
			cache[dst] = r
		}
		return r, err
	}
	walked := 0
	for _, gid := range h.c.GroupIDs() {
		for _, src := range bySrc[gid] {
			dst := rng.Intn(truth.N()) + 1
			if dst == src {
				dst = dst%truth.N() + 1
			}
			bfs, err := bfsFrom(dst)
			if err != nil {
				return walked, err
			}
			d := bfs.Dist[src]
			if d == shortestpath.Unreachable {
				continue
			}
			res, err := h.front.Lookup(src, dst)
			if err != nil || res.Err != nil {
				return walked, fmt.Errorf("%w: quiesce walk %d→%d not served (err=%v, res.Err=%v)",
					ErrIncorrect, src, dst, err, res.Err)
			}
			if res.Dist < d || res.Dist > 3*d {
				return walked, fmt.Errorf("%w: quiesce estimate %d→%d = %d outside [%d, %d]",
					ErrIncorrect, src, dst, res.Dist, d, 3*d)
			}
			cur, hops := src, 0
			for cur != dst {
				r2, err := h.front.Lookup(cur, dst)
				if err != nil || r2.Err != nil {
					return walked, fmt.Errorf("%w: quiesce walk %d→%d stalled at %d (err=%v, res.Err=%v)",
						ErrIncorrect, src, dst, cur, err, r2.Err)
				}
				if !truth.HasEdge(cur, r2.Next) {
					return walked, fmt.Errorf("%w: quiesce walk %d→%d: hop %d→%d is not an edge",
						ErrIncorrect, src, dst, cur, r2.Next)
				}
				cur = r2.Next
				hops++
				if hops > 3*d {
					return walked, fmt.Errorf("%w: quiesce walk %d→%d exceeded %d hops (d=%d)",
						ErrIncorrect, src, dst, 3*d, d)
				}
			}
			walked++
		}
	}
	return walked, nil
}

// sameEdges compares topologies by their deterministic edge lists.
func sameEdges(a, b *graph.Graph) bool {
	if a.N() != b.N() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// ShardCSVHeader is the docs/shard artefact header row (EXPERIMENTS.md E21).
const ShardCSVHeader = "n,seed,groups,final_groups,replicas,lookups,served,rejected,unavailable,errored,availability_pct,min_shard_availability_pct,spot_graded,spot_violations,spot_max_stretch_milli,walks_graded,churn_rounds,partitions,corruptions,split_done,split_ns,map_epoch,promoted,failover_ns,resyncs,max_replay_lag,max_shard_resync_bytes,digests_converged,tables_identical,topologies_equal,qps"

// WriteShardCSV renders shard chaos reports in the artefact layout.
func WriteShardCSV(w io.Writer, reports []*ShardReport) error {
	if _, err := fmt.Fprintln(w, ShardCSVHeader); err != nil {
		return err
	}
	for _, r := range reports {
		maxResync := 0
		for _, s := range r.PerShard {
			if s.ResyncBytes > maxResync {
				maxResync = s.ResyncBytes
			}
		}
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%v,%d,%d,%v,%d,%d,%d,%d,%v,%v,%v,%.0f\n",
			r.N, r.Seed, r.Groups, r.FinalGroups, r.Replicas, r.Lookups, r.Served,
			r.Rejected, r.Unavailable, r.Errored, r.AvailabilityPct, r.MinShardAvailabilityPct,
			r.SpotGraded, r.SpotViolations, r.SpotMaxStretchMilli, r.WalksGraded,
			r.ChurnRounds, r.Partitions, r.Corruptions, r.SplitDone, r.SplitNs,
			r.MapEpoch, r.Promoted, r.FailoverNs, r.Resyncs, r.MaxReplayLag,
			maxResync, r.DigestsConverged, r.TablesIdentical, r.TopologiesEqual, r.QPS)
		if err != nil {
			return err
		}
	}
	return nil
}
