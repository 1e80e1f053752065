// The group shapes: a replicated cluster (one primary and its replicas) and a
// sharded one (the keyspace split across shard groups by a versioned shard
// map, each group an ordinary primary/replica set behind a scatter-gather
// front). Both run one path: every member sits behind a chaos gate, every
// replica's feed behind a chaosSource, the closed loop fans through the front
// door, and the harness injects the failure modes a replicated routing
// service meets — replica partitions from a seeded faultinject plan, a kill
// -9 of the primary recovered from its durable WAL, WAL corruption and
// truncation forcing snapshot-fetch fallbacks, a live shard split racing
// churn, and a primary kill recovered by promoting a replica.
//
// The full tier serves a dense G(n, 1/2) topology, churns it with edge
// toggles and link fail/heal cycles, and grades every answer strictly. The
// tables tier (landmark) serves a sparse topology sized past the all-pairs
// ceiling, churns it by toggling initially-absent edges, and spot-grades
// answers: there is no all-pairs matrix to grade against, and
// Result.Dist/NextDist are stretch-bounded estimates, so each member carries
// a spotgrade.Grader over its own engine, asserting reachability,
// real-neighbour next hops, and stretch ≤ 3 on a deterministic hash sample —
// replica staleness and mid-split races cannot cause false verdicts.
//
// The contract extends the single-node rule to the cluster: failures may
// cost availability (bounded by a much tighter budget, since a healthy
// member can almost always answer) but never correctness. At quiesce every
// group must converge — asserted first by anti-entropy digests, then by
// comparing the packed distance matrices (full tier) or the encoded scheme
// tables (tables tier) — the groups' topologies must be byte-identical, and
// full routes are walked end to end through the front, each hop resolved by
// the group owning it, within the stretch-3 budget.
//
// Every replication fetch round-trips through the real WAL/state codec
// (encode → optionally corrupt → decode), so the bytes a routetabd cluster
// would put on the wire are the bytes this harness grades.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/cluster/shard"
	"routetab/internal/faultinject"
	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/spotgrade"
	"routetab/internal/shortestpath"
)

// The fixed parts of the group load and fault schedule.
const (
	// frontBatch is the keys per closed-loop request in the sharded shape,
	// which the front scatter-gathers across groups. A replicated group's
	// router gets one key per request: it hedges a request to a second
	// member after 500 µs, about the time a member takes to spot-grade a few
	// answers on the tables tier, so larger requests would be graded twice.
	frontBatch = 8
	// partitionHealAfter is how many partition-plan ticks an isolated
	// replica stays cut off.
	partitionHealAfter = 2
	// walkSamples is how many full routes are walked per group at quiesce.
	walkSamples = 8
)

// groupRouter is every group's failover router: a second member is raced
// after 500 µs, and a demoted one probed again after 2 ms.
var groupRouter = cluster.RouterOptions{HedgeAfter: 500 * time.Microsecond, ProbeAfter: 2 * time.Millisecond}

// fleetGroup is one replicated group as the harness sees it.
type fleetGroup struct {
	id       int
	primary  *cluster.Primary
	replicas []*cluster.Replica // the live followers
}

// fleet is what a group shape serves from: the replicated shape's one group,
// which the harness boots over a durable WAL, or a shard.Cluster's groups.
type fleet interface {
	groups() []fleetGroup // in id order
	mutate(fn func(*graph.Graph) error) error
	promote() error  // kill group 0's primary and promote its first replica
	owner(u int) int // the group serving source u
	fill(r *Report, elapsed time.Duration)
	close()
}

// groupRun is one group-shaped run's state. Only the goroutine that builds
// the fleet and then the phase controller — one phase at a time, a split's
// racing churn only while its phase waits — touch the maps, the replica and
// source lists, and the report's fault counters, which are read once the
// load has stopped; so none of them needs a lock. (shard.Cluster calls its
// Wrap hooks on the goroutine that builds or splits it.)
type groupRun struct {
	sc   Scenario
	plan tierPlan
	rep  *Report
	grader
	srvOpts serve.ServerOptions
	fleet   fleet
	front   interface {
		Lookup(src, dst int) (serve.Result, error)
		LookupBatch(pairs [][2]int, out []serve.Result) error
	}

	gates   map[string]*gate
	members map[string]*member
	graders []*spotgrade.Grader // every spot grader ever bound (tables tier)
	// Every replica ever joined and its feed, in join order: the first
	// peers() of each are the initial groups', peer i's at index i.
	replicas []*cluster.Replica
	sources  []*chaosSource

	toggles [][2]int // tables-tier churn pool
	round   int
	// cutSeq is, per peer, its group primary's last WAL sequence when its
	// partition began: nothing published later may reach it before the heal.
	cutSeq map[int]uint64
}

func memberName(group, seat int) string { return fmt.Sprintf("g%d-m%d", group, seat) }

// peers is the replica count of the initial groups; peer i is replica i%R+1
// of group i/R.
func (h *groupRun) peers() int { return max(h.sc.Groups, 1) * h.sc.Replicas }

// gate returns member name's gate, creating it on first use — the same gate
// severs the member's replication feed and its client traffic, like a real
// partition.
func (h *groupRun) gate(name string) *gate {
	g := h.gates[name]
	if g == nil {
		g = &gate{}
		h.gates[name] = g
	}
	return g
}

// addMember puts member name, answering from srv or inner, behind its gate.
func (h *groupRun) addMember(name string, srv *serve.Server, inner cluster.Backend) *member {
	m := &member{name: name, gate: h.gate(name), inner: inner}
	m.srv.Store(srv)
	h.members[name] = m
	return m
}

// wrapSource puts replica name's feed behind its gate and the wire codec.
func (h *groupRun) wrapSource(name string, s cluster.Source) *chaosSource {
	cs := &chaosSource{target: s, gate: h.gate(name), rng: rand.New(rand.NewSource(h.sc.Seed*7919 + int64(len(h.sources))))}
	h.sources = append(h.sources, cs)
	return cs
}

// bind points member name's spot grader at eng (tables tier only; the full
// tier grades every answer strictly at the front door).
func (h *groupRun) bind(name string, eng *serve.Engine) {
	if h.plan.strict {
		return
	}
	g := spotgrade.New(eng, spotgrade.Config{Seed: h.sc.Seed, SampleEvery: 1})
	h.graders = append(h.graders, g)
	h.members[name].grader.Store(g)
}

// bindGroup binds the graders of g's members and records its replicas.
func (h *groupRun) bindGroup(g fleetGroup) {
	h.bind(memberName(g.id, 0), g.primary.Engine())
	for i, r := range g.replicas {
		h.bind(memberName(g.id, i+1), r.Engine())
	}
	h.replicas = append(h.replicas, g.replicas...)
}

// runGroups stands the scenario's fleet up and drives its load and faults.
func runGroups(sc Scenario, plan tierPlan) (*Report, error) {
	h := &groupRun{sc: sc, plan: plan, grader: grader{strict: plan.strict},
		srvOpts: serve.ServerOptions{Shards: 2, QueueCap: sc.Workers * 4, StretchSampleEvery: -1},
		gates:   make(map[string]*gate), members: make(map[string]*member), cutSeq: make(map[int]uint64),
		rep: &Report{Scheme: sc.Scheme, Tier: plan.name, N: sc.N, Seed: sc.Seed, Groups: sc.Groups,
			Replicas: sc.Replicas, MatrixBytes: uint64(sc.N) * uint64(sc.N)}}
	var err error
	if sc.Groups > 0 {
		err = h.shard()
	} else {
		err = h.replicate()
	}
	if h.fleet != nil {
		defer h.fleet.close()
	}
	if err != nil {
		return nil, err
	}
	snap := h.fleet.groups()[0].primary.Engine().Current()
	if !plan.strict {
		if err := checkSubQuadratic(snap); err != nil {
			return nil, err
		}
		if h.toggles = absentEdges(snap.Graph, 8); len(h.toggles) == 0 {
			return nil, errors.New("chaos: no absent edges to churn (topology is complete)")
		}
	}
	for _, g := range h.fleet.groups() {
		h.bindGroup(g)
	}
	phases, err := h.phases()
	if err != nil {
		return nil, err
	}

	// Requests alternate between the front door's two entry points: a batch
	// key by key through Lookup, then one through LookupBatch, so every phase
	// exercises both paths.
	batch := 1
	if sc.Groups > 0 {
		batch = frontBatch
	}
	var requests atomic.Uint64
	elapsed, runErr := loop{
		n: sc.N, workers: sc.Workers, batch: batch, seed: sc.Seed, lookups: sc.Lookups,
		answered: &h.answered, maxBackoff: time.Millisecond,
		lookup: func(pairs [][2]int, out []serve.Result) (time.Duration, error) {
			var backoff time.Duration
			if requests.Add(1)%2 == 0 {
				if err := h.front.LookupBatch(pairs, out); err != nil {
					return 0, err
				}
				for i := range out {
					backoff = max(backoff, h.judge(pairs[i], &out[i], nil))
				}
				return backoff, nil
			}
			for _, p := range pairs {
				res, err := h.front.Lookup(p[0], p[1])
				backoff = max(backoff, h.judge(p, &res, err))
			}
			return backoff, nil
		},
	}.run(phases)
	return h.quiesce(elapsed, runErr)
}

// replicated is the replicated shape's one group. Member g0-m0 journals
// every publication to a durable WAL (fsync=always) on a power-loss-modelling
// MemFS, behind a fault-injecting wrapper the crash phase arms to tear one
// append; g0-m1.. are its replicas, fed straight from it.
type replicated struct {
	h        *groupRun
	primary  *cluster.Primary // the current primary
	p0       *cluster.Primary // member g0-m0's current incarnation (replaced on restart)
	replicas []*cluster.Replica
	promoted bool
	router   *cluster.Router
	walFS    *faultinject.MemFS
	walFault *faultinject.FaultFS
}

func (h *groupRun) replicate() error {
	f := &replicated{h: h, walFS: faultinject.NewMemFS()}
	var err error
	if f.walFault, err = faultinject.NewFaultFS(f.walFS, faultinject.DiskFaultConfig{Seed: h.sc.Seed}); err != nil {
		return err
	}
	if f.primary, _, err = h.plan.bootPrimary(h.sc.Scheme, h.sc.N, h.sc.Seed, h.srvOpts, serve.RepairOptions{}, f.walFault); err != nil {
		return err
	}
	f.p0, h.fleet = f.primary, f
	backends := []cluster.Backend{h.addMember(memberName(0, 0), f.primary.Server(), nil)}
	for i := 1; i <= h.sc.Replicas; i++ {
		name := memberName(0, i)
		r, err := cluster.JoinReplica(h.wrapSource(name, f.primary), cluster.ReplicaOptions{Server: h.srvOpts})
		if err != nil {
			return fmt.Errorf("chaos: replica %d join: %w", i, err)
		}
		r.Start()
		f.replicas = append(f.replicas, r)
		backends = append(backends, h.addMember(name, r.Server(), nil))
	}
	f.router = cluster.NewRouter(backends, groupRouter)
	h.front = f.router
	return nil
}

func (f *replicated) groups() []fleetGroup {
	live := f.replicas
	if f.promoted {
		live = live[1:]
	}
	return []fleetGroup{{id: 0, primary: f.primary, replicas: live}}
}

func (f *replicated) mutate(fn func(*graph.Graph) error) error {
	_, err := f.primary.Mutate(fn)
	return err
}

// promote detaches the primary's publish hook, promotes replica 0 under a
// bumped epoch, and points the surviving replicas at it (a membership change:
// they observe the epoch bump and resync). The promoted member keeps serving
// through its existing server, now as primary; the dead member answers
// nothing again, even once quiesce heals its gate, and the router steers
// around it.
func (f *replicated) promote() error {
	f.primary.Close()
	f.h.members[memberName(0, 0)].srv.Store(nil)
	np, err := f.replicas[0].Promote()
	if err != nil {
		return err
	}
	f.primary, f.promoted = np, true
	for _, cs := range f.h.sources[1:] {
		cs.setTarget(np)
	}
	return nil
}

func (f *replicated) owner(int) int { return 0 }

func (f *replicated) fill(r *Report, elapsed time.Duration) {
	r.FinalEpoch = f.primary.Epoch()
	for name, n := range f.router.Served() {
		r.PerMember = append(r.PerMember, MemberStats{Name: name, Served: n, QPS: float64(n) / elapsed.Seconds()})
	}
	slices.SortFunc(r.PerMember, func(a, b MemberStats) int { return strings.Compare(a.Name, b.Name) })
}

func (f *replicated) close() {
	for _, r := range f.replicas {
		r.Close()
	}
	f.primary.Close()
	closePrimary(f.p0, false)
}

// sharded is the sharded shape: shard.NewCluster's groups behind its
// scatter-gather front, the harness's gates, feeds and graders wired in
// through the cluster's WrapSource/WrapBackend hooks.
type sharded struct{ c *shard.Cluster }

func (h *groupRun) shard() error {
	g, err := h.plan.topology(h.sc.N, rand.New(rand.NewSource(h.sc.Seed)))
	if err != nil {
		return err
	}
	m, err := shard.NewUniform(h.sc.N, h.sc.Groups)
	if err != nil {
		return err
	}
	c, err := shard.NewCluster(g, m, shard.ClusterOptions{
		Scheme:        h.sc.Scheme,
		Replicas:      h.sc.Replicas,
		StartReplicas: true,
		Server:        h.srvOpts,
		GroupRouter:   groupRouter,
		Front:         shard.RouterOptions{Seed: h.sc.Seed},
		WrapSource: func(_ int, name string, s cluster.Source) cluster.Source {
			return h.wrapSource(name, s)
		},
		WrapBackend: func(_ int, name string, b cluster.Backend) cluster.Backend {
			return h.addMember(name, nil, b)
		},
	})
	if err != nil {
		return err
	}
	h.fleet, h.front = sharded{c}, c.Front()
	return nil
}

func (f sharded) groups() []fleetGroup {
	var gs []fleetGroup
	for _, id := range f.c.GroupIDs() {
		if g := f.c.Group(id); g != nil {
			gs = append(gs, fleetGroup{id: id, primary: g.Primary, replicas: g.Replicas()})
		}
	}
	return gs
}

func (f sharded) mutate(fn func(*graph.Graph) error) error { return f.c.Mutate(fn) }
func (f sharded) promote() error                           { return f.c.Promote(0, 0) }
func (f sharded) owner(u int) int                          { return f.c.Map().GroupFor(u) }
func (f sharded) close()                                   { f.c.Close() }

// fill records the map, and per-shard availability and resync payloads.
func (f sharded) fill(r *Report, _ time.Duration) {
	ids := f.c.GroupIDs()
	r.FinalGroups, r.MapEpoch = len(ids), f.c.Map().Epoch
	stats := f.c.Front().Stats()
	minAvail := 1.0
	for _, id := range ids {
		s := stats[id]
		sb, _ := f.c.StateBytes(id)
		r.PerShard = append(r.PerShard, ShardStats{Group: id, Served: s.Served, Failed: s.Failed,
			AvailabilityPct: 100 * s.Availability(), ResyncBytes: sb})
		minAvail = min(minAvail, s.Availability())
	}
	r.MinShardAvailabilityPct = 100 * minAvail
}

// SetPeerDown implements faultinject.PeerTarget for the partition plan: peer
// i is a replica of an initial group, severed from both its feed and its
// clients. A heal first checks that the replica applied nothing its group's
// primary published after the cut.
func (h *groupRun) SetPeerDown(peer int, isDown bool) error {
	if peer < 0 || peer >= h.peers() {
		return fmt.Errorf("chaos: partition of unknown peer %d", peer)
	}
	gid := peer / h.sc.Replicas
	name := memberName(gid, peer%h.sc.Replicas+1)
	if isDown {
		h.gate(name).down.Store(true)
		for _, g := range h.fleet.groups() {
			if g.id == gid {
				h.cutSeq[peer] = g.primary.Log().LastSeq()
			}
		}
		h.rep.Partitions++
		return nil
	}
	if got, cut := h.replicas[peer].WalSeq(), h.cutSeq[peer]; got > cut {
		return fmt.Errorf("%w: replica %s is at seq %d, cut off at seq %d", ErrLeak, name, got, cut)
	}
	h.gate(name).down.Store(false)
	return nil
}

// SetLinkDown and SetNodeDown satisfy faultinject.Target; the partition plan
// contains only peer events (topology churn goes through the primaries), so
// these must never fire.
func (h *groupRun) SetLinkDown(u, v int, isDown bool) error {
	return fmt.Errorf("chaos: unexpected link fault (%d,%d) in partition plan", u, v)
}
func (h *groupRun) SetNodeDown(u int, isDown bool) error {
	return fmt.Errorf("chaos: unexpected node fault %d in partition plan", u)
}

// churn publishes one deterministic topology change through the primaries.
// The full tier (replicated only) alternates an edge flip that never
// disconnects the topology with a link fail + heal cycle through the
// repairer, exercising RecLink shipping and overlay reconciliation on
// replicas; the tables tier adds the round's toggle edge if absent and
// removes it if present, every churn a rebuild on each member.
func (h *groupRun) churn() error {
	round := h.round
	h.round++
	var err error
	switch p := h.fleet.groups()[0].primary; {
	case !h.plan.strict:
		err = h.fleet.mutate(toggle(h.toggles[round%len(h.toggles)]))
	case round%2 == 0:
		err = flipEdge(p, round)
	default:
		var e [2]int
		if e, err = roundEdge(p, round); err == nil {
			if err = p.SetLinkDown(e[0], e[1], true); err == nil {
				err = p.SetLinkDown(e[0], e[1], false)
			}
		}
	}
	if err != nil {
		return err
	}
	h.rep.ChurnRounds++
	return nil
}

// churnN publishes k churn rounds and samples the replicas' lag.
func (h *groupRun) churnN(k int) error {
	for i := 0; i < k; i++ {
		if err := h.churn(); err != nil {
			return err
		}
	}
	h.sampleLag(h.fleet.groups())
	return nil
}

// churnSettle publishes k churn rounds and waits for the replicas to settle.
func (h *groupRun) churnSettle(k int) error {
	if err := h.churnN(k); err != nil {
		return err
	}
	h.settle()
	return nil
}

// roundEdge is the existing edge of p's topology that churn round picks.
func roundEdge(p *cluster.Primary, round int) ([2]int, error) {
	edges := p.Engine().Current().Graph.Edges()
	if len(edges) == 0 {
		return [2]int{}, errors.New("chaos: topology ran out of edges")
	}
	return edges[(round*2654435761)%len(edges)], nil
}

// flipEdge publishes exactly one record through p: round's edge toggled by a
// Mutate that never disconnects the topology — a removal that would is
// undone, a no-op round.
func flipEdge(p *cluster.Primary, round int) error {
	e, err := roundEdge(p, round)
	if err != nil {
		return err
	}
	_, err = p.Mutate(func(gr *graph.Graph) error {
		if !gr.HasEdge(e[0], e[1]) {
			return gr.AddEdge(e[0], e[1])
		}
		if err := gr.RemoveEdge(e[0], e[1]); err != nil {
			return err
		}
		if !gr.IsConnected() {
			return gr.AddEdge(e[0], e[1])
		}
		return nil
	})
	return err
}

// sampleLag folds the replicas' current replay lag into the report.
func (h *groupRun) sampleLag(groups []fleetGroup) {
	for _, g := range groups {
		for _, r := range g.replicas {
			_, _, lag := r.Stats()
			h.rep.MaxReplayLag = max(h.rep.MaxReplayLag, lag)
		}
	}
}

// converged samples the replicas' lag and reports whether every group's
// replicas agree with its primary's digest. WAL positions go first: a digest
// hashes every member's tables, too much to poll every millisecond while the
// replicas are still catching up, and equal digests imply equal positions.
func (h *groupRun) converged() bool {
	groups := h.fleet.groups()
	h.sampleLag(groups)
	for _, g := range groups {
		for _, r := range g.replicas {
			if r.WalSeq() != g.primary.Log().LastSeq() {
				return false
			}
		}
		if ok, _, err := cluster.CheckEntropy(g.primary, g.replicas...); err != nil || !ok {
			return false
		}
	}
	return true
}

// settle waits for every group to converge, counting a wait that runs out its
// deadline (convergence is verified for real at quiesce).
func (h *groupRun) settle() {
	for until := time.Now().Add(h.plan.settle); !h.converged(); time.Sleep(h.plan.settlePoll) {
		if time.Now().After(until) {
			h.rep.SettleTimeouts++
			return
		}
	}
}

// phases lays out the schedule, one or more phases per fault in list order.
func (h *groupRun) phases() ([]phase, error) {
	var ps []phase
	add := func(name string, run func() error) { ps = append(ps, phase{name: name, run: run}) }
	corruptions := 0
	for _, f := range h.sc.Faults {
		switch f {
		case Churn:
			add("churn", func() error { return h.churnSettle(h.plan.churnBurst) })
		case CrashRestart:
			// The crash restart is best early: a cold restart replays the WAL
			// from seq 1 over the initial topology, one rebuild per record,
			// so the log must still be whole (before any truncation).
			add("primary crash + WAL recovery", func() error {
				if err := h.crashRestart(); err != nil {
					return err
				}
				return h.churnN(1)
			})
		case Partition:
			// Every replica isolated once, healed partitionHealAfter ticks
			// later, on a deterministic schedule; one phase per tick, and
			// churn continues while replicas are cut off, forcing real
			// catch-up on heal.
			pp, err := faultinject.RandomPartitionPlan(faultinject.PartitionConfig{
				Peers:       h.peers(),
				IsolateProb: 0.999, // isolate every replica exactly once
				Horizon:     h.peers(),
				HealAfter:   partitionHealAfter,
			}, h.sc.Seed)
			if err != nil {
				return nil, err
			}
			inj, err := faultinject.New(faultinject.Config{Seed: h.sc.Seed}, pp)
			if err != nil {
				return nil, err
			}
			inj.Bind(h)
			for t := 0; t <= h.peers()+partitionHealAfter+1; t++ {
				add(fmt.Sprintf("partition tick %d", t), func() error {
					if err := inj.AdvanceTo(t); err != nil {
						return err
					}
					return h.churnN(1)
				})
			}
			add("heal partitions", func() error {
				if err := inj.Finish(); err != nil {
					return err
				}
				h.settle()
				return nil
			})
		case Corrupt:
			peer := corruptions % h.peers()
			corruptions++
			add(fmt.Sprintf("wal corruption peer %d", peer), func() error {
				h.sources[peer].armCorruption(true)
				return h.churnSettle(1)
			})
		case Truncate:
			add("wal truncation", func() error {
				if err := h.churnN(h.plan.churnBurst); err != nil {
					return err
				}
				// Drop every whole log: a replica that has not pulled yet
				// gets ErrGone and must fall back to a state fetch.
				for _, g := range h.fleet.groups() {
					g.primary.Log().TruncateTo(g.primary.Log().LastSeq())
				}
				h.rep.Truncations++
				h.settle()
				return nil
			})
		case Promote:
			add("primary kill + promotion", h.killPromote)
		case Split:
			add("split racing churn", h.split)
		}
	}
	return ps, nil
}

// crashRestart is the kill -9 phase: arm the WAL disk to tear the next
// append mid-frame, publish one churn round into the tear, kill the primary
// without any flush, then restart it cold over the surviving bytes. Recovery
// must resume the same epoch with a byte-identical table, and the replicas —
// severed from the feed for the instant of the crash, exactly like clients
// of a dying process — must catch up via WAL replay with zero full resyncs.
func (h *groupRun) crashRestart() error {
	f := h.fleet.(*replicated)
	h.settle()
	preDigest, err := f.primary.FetchDigest()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	pre := make([]uint64, len(f.replicas))
	for i, r := range f.replicas {
		_, pre[i], _ = r.Stats()
	}

	// Sever replication feeds (not client traffic): a record whose append is
	// about to tear must never be handed to a replica — in a real kill -9
	// the process dies before answering the next pull.
	for _, cs := range h.sources {
		cs.feedDown.Store(true)
	}
	f.walFault.CrashAt(f.walFault.WrittenBytes() + 6)
	if err := h.churnN(1); err != nil {
		return fmt.Errorf("%w: churn into the tear: %v", ErrRecovery, err)
	}
	if !f.walFault.Crashed() {
		return fmt.Errorf("%w: armed disk crash did not fire", ErrRecovery)
	}

	// kill -9: clients lose member g0-m0; nothing is flushed or finalised.
	p0 := h.gate(memberName(0, 0))
	p0.down.Store(true)
	oldEpoch := f.primary.Epoch()
	closePrimary(f.p0, true)

	// Cold restart over the same disk: the reboot heals the injected fault
	// (reads and writes work again) but not the torn bytes.
	np, rpt, err := h.plan.bootPrimary(h.sc.Scheme, h.sc.N, h.sc.Seed, h.srvOpts, serve.RepairOptions{}, f.walFS)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRecovery, err)
	}
	f.primary, f.p0 = np, np
	if rpt.EpochBumped || rpt.Epoch != oldEpoch {
		return fmt.Errorf("%w: epoch %d -> %d (bumped=%v): %s", ErrRecovery, oldEpoch, rpt.Epoch, rpt.EpochBumped, rpt.Reason)
	}
	if postDigest, err := np.FetchDigest(); err != nil || postDigest != preDigest {
		return fmt.Errorf("%w: digest %+v after recovery (err %v), want %+v", ErrRecovery, postDigest, err, preDigest)
	}

	h.members[memberName(0, 0)].srv.Store(np.Server())
	h.bind(memberName(0, 0), np.Engine())
	for _, cs := range h.sources {
		cs.setTarget(np)
		cs.feedDown.Store(false)
	}
	p0.down.Store(false)
	h.rep.CrashRestarts++
	h.rep.WalRecovered = true

	// Replicas must converge on the restarted primary via WAL replay alone.
	h.settle()
	for i, r := range f.replicas {
		_, rs, _ := r.Stats()
		h.rep.RecoveryResyncs += rs - pre[i]
	}
	if h.rep.RecoveryResyncs > 0 {
		return fmt.Errorf("%w: %d full resyncs after restart", ErrRecovery, h.rep.RecoveryResyncs)
	}
	return nil
}

// killPromote kills group 0's primary (unreachable to clients, publish hook
// detached), promotes its first replica under a bumped epoch, and measures
// kill → first routed answer for a key group 0 serves as the failover
// latency.
func (h *groupRun) killPromote() error {
	h.settle()
	src := 1
	for src <= h.sc.N && h.fleet.owner(src) != 0 {
		src++
	}
	dst := 1
	if dst == src {
		dst = 2
	}
	start := time.Now()
	h.gate(memberName(0, 0)).down.Store(true)
	if err := h.fleet.promote(); err != nil {
		return fmt.Errorf("%w: %v", ErrFailover, err)
	}
	h.rep.Promoted = true
	for {
		res, err := h.front.Lookup(src, dst)
		h.judge([2]int{src, dst}, &res, err)
		if err == nil && res.Err == nil {
			break
		}
		if time.Since(start) > h.plan.settle {
			return fmt.Errorf("%w: no routed answer %v after kill", ErrFailover, time.Since(start))
		}
		time.Sleep(100 * time.Microsecond)
	}
	h.rep.FailoverNs = time.Since(start).Nanoseconds()
	h.settle()
	return nil
}

// split carves a new group out of group 0 while a churn goroutine keeps
// publishing, binds the new group's graders, and waits for it to converge.
func (h *groupRun) split() error {
	c := h.fleet.(sharded).c
	var churnErr error
	stopChurn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			if churnErr = h.churn(); churnErr != nil {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	start := time.Now()
	newID, err := c.Split(0)
	close(stopChurn)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSplit, err)
	}
	if churnErr != nil {
		return fmt.Errorf("chaos: churn during split: %w", churnErr)
	}
	h.rep.SplitNs = time.Since(start).Nanoseconds()
	h.rep.SplitDone = true
	for _, g := range h.fleet.groups() {
		if g.id == newID {
			h.bindGroup(g)
		}
	}
	h.settle()
	return nil
}

// quiesce heals every gate, disarms corruption, forces every replica through
// a final sync, proves convergence, walks routes, and assembles and grades
// the report.
func (h *groupRun) quiesce(elapsed time.Duration, runErr error) (*Report, error) {
	for _, g := range h.gates {
		g.down.Store(false)
	}
	for _, cs := range h.sources {
		cs.armCorruption(false)
	}
	r := h.rep
	r.Members = len(h.members)
	groups := h.fleet.groups()
	for _, g := range groups {
		for _, rp := range g.replicas {
			_ = rp.Sync() // a failed pull shows up in the convergence check below
		}
	}
	h.settle()
	r.DigestsConverged = h.converged()

	// Per-group table identity and cross-group topology lockstep.
	r.TablesIdentical, r.TopologiesEqual = true, true
	var truth *graph.Graph
	for _, g := range groups {
		snap := g.primary.Engine().Current()
		if truth == nil {
			truth = snap.Graph
			r.SnapshotBytes, r.Landmarks = snap.ArenaSize(), landmarks(snap)
		} else if !truth.Equal(snap.Graph) {
			r.TopologiesEqual = false
		}
		want := tableBytes(snap)
		for _, rp := range g.replicas {
			if !bytes.Equal(tableBytes(rp.Engine().Current()), want) {
				r.TablesIdentical = false
			}
		}
		if st, err := g.primary.FetchState(); err == nil {
			var buf bytes.Buffer
			if cluster.EncodeState(&buf, st) == nil {
				r.ResyncBytes = max(r.ResyncBytes, buf.Len())
			}
		}
	}
	if r.TopologiesEqual {
		h.walk(truth)
	}
	for _, rp := range h.replicas {
		_, rs, _ := rp.Stats()
		r.Resyncs += rs
	}
	for _, cs := range h.sources {
		r.Corruptions += int(cs.corrupted.Load())
	}
	h.fill(r, elapsed, h.graders)
	h.fleet.fill(r, elapsed)
	if runErr != nil {
		return r, runErr
	}
	return r, verdict(h.sc, r)
}

// walk walks full routes end to end through the front at quiesce: for each
// group, sampled sources it serves route to random destinations, every hop
// resolved by the group serving it, every hop a real edge of the converged
// topology, and the whole route within the stretch-3 hop budget. A failed
// walk counts as one incorrect answer.
func (h *groupRun) walk(truth *graph.Graph) {
	rng := rand.New(rand.NewSource(h.sc.Seed * 31))
	bySrc := make(map[int][]int)
	for u := 1; u <= truth.N(); u++ {
		if g := h.fleet.owner(u); len(bySrc[g]) < walkSamples {
			bySrc[g] = append(bySrc[g], u)
		}
	}
	cache := make(map[int]*shortestpath.BFSResult)
	fail := func(format string, args ...any) {
		h.incorrect.Add(1)
		h.rep.Violation = fmt.Sprintf("quiesce walk "+format, args...)
	}
	for _, g := range h.fleet.groups() {
		for _, src := range bySrc[g.id] {
			dst := rng.Intn(truth.N()) + 1
			if dst == src {
				dst = dst%truth.N() + 1
			}
			bfs := cache[dst]
			if bfs == nil {
				var err error
				if bfs, err = shortestpath.BFS(truth, dst); err != nil {
					fail("BFS from %d: %v", dst, err)
					return
				}
				cache[dst] = bfs
			}
			d := bfs.Dist[src]
			if d == shortestpath.Unreachable {
				continue
			}
			res, err := h.front.Lookup(src, dst)
			if err != nil || res.Err != nil {
				fail("%d→%d not served (err=%v, res.Err=%v)", src, dst, err, res.Err)
				return
			}
			if res.Dist < d || res.Dist > 3*d {
				fail("estimate %d→%d = %d outside [%d, %d]", src, dst, res.Dist, d, 3*d)
				return
			}
			for cur, hops := src, 0; cur != dst; hops++ {
				if hops >= 3*d {
					fail("%d→%d exceeded %d hops (d=%d)", src, dst, 3*d, d)
					return
				}
				r2, err := h.front.Lookup(cur, dst)
				if err != nil || r2.Err != nil {
					fail("%d→%d stalled at %d (err=%v, res.Err=%v)", src, dst, cur, err, r2.Err)
					return
				}
				if !truth.HasEdge(cur, r2.Next) {
					fail("%d→%d: hop %d→%d is not an edge", src, dst, cur, r2.Next)
					return
				}
				cur = r2.Next
			}
			h.rep.WalksGraded++
		}
	}
}
