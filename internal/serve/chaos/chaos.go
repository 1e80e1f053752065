// Package chaos is the serve-layer chaos harness. One declarative Scenario
// names a scheme (which picks the serving tier), a topology size and seed, a
// closed-loop load, a shape — a single node, a primary with replicas, or
// shard groups of replicas — and an ordered list of faults. Run drives the
// seeded load against the live system while it fires the faults at
// lookup-progress milestones, grades every single answer, and checks the
// invariants the scenario implies. RunCrash is the crash-recovery sweep,
// which drives no load.
//
// The harness's contract mirrors the repo-wide soundness rule: failures may
// cost availability (sheds, honest ErrUnavailable) and latency, but never
// correctness. On the full tier every answer is graded strictly (stretch-1
// next hops, Theorem 1's full tables); on the tables tier each answer is
// spot-graded against on-demand BFS ground truth (the Thorup–Zwick stretch-3
// bound). A run fails on one incorrect answer, a degraded detour over +2 hops,
// an unavailability budget broken, or any invariant a fault implies: a
// byte-identical restore, a self-healed topology, byte-identical members at
// quiesce, a WAL recovery, a promotion, a split.
//
// Injection order is deterministic (seeded plans, progress-paced phases), so
// wall-clock jitter changes timings, never which faults a run faces.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"routetab/internal/serve"
)

// Fault is one entry of a scenario's ordered fault list. Each entry becomes
// one or more phases of the schedule, in list order.
type Fault int

// The faults. Stall through Swap fit the single-node shape, Churn through
// Split the group shapes.
const (
	// Stall sleeps one server shard's worker while a surge of extra clients
	// hammers it, so its breaker trips and siblings absorb the load.
	Stall Fault = iota
	// Drop makes one shard discard a window of whole batches.
	Drop
	// Burst fires one wave of the seeded link/node failure plan; the plan is
	// repaired in full after the last burst (strict only: self-heal compares
	// packed matrices).
	Burst
	// KillRestore kills the server mid-swap and restores its engine from the
	// persisted snapshot (strict only: it compares packed matrices).
	KillRestore
	// Swap hot-swaps the snapshot by toggling one edge absent from the
	// initial topology.
	Swap
	// Churn publishes the tier's churn burst through the primaries and waits
	// for the replicas to settle.
	Churn
	// CrashRestart kills -9 the primary mid-append and restarts it cold over
	// its torn durable WAL (replicated shape only).
	CrashRestart
	// Partition runs the seeded partition plan: every replica cut off from
	// its feed and clients once while churn goes on, then healed.
	Partition
	// Corrupt bit-flips one replica's next WAL batch on the wire.
	Corrupt
	// Truncate drops every primary's whole WAL under lagging replicas.
	Truncate
	// Promote kills group 0's primary and promotes its first replica.
	Promote
	// Split carves a new shard group out of group 0 while churn races it.
	Split
)

var faultNames = []string{"stall", "drop", "burst", "kill-restore", "swap",
	"churn", "crash-restart", "partition", "corrupt", "truncate", "promote", "split"}

func (f Fault) String() string {
	if f < 0 || int(f) >= len(faultNames) {
		return fmt.Sprintf("fault(%d)", int(f))
	}
	return faultNames[f]
}

// Scenario is one declarative chaos run.
type Scenario struct {
	// Scheme picks the tier: a table-capable scheme (landmark) serves the
	// tables tier, a shortest-path scheme the full tier.
	Scheme string
	// N is the topology size.
	N int
	// Seed keys the topology, the query streams, and every fault plan.
	Seed int64
	// Lookups is the total lookup target across workers.
	Lookups uint64
	// Workers is the closed-loop client count.
	Workers int
	// Replicas is 0 for a single node, else the replicas per group.
	Replicas int
	// Groups is 0 for one replicated group, else the shard-group count.
	Groups int
	// Faults is the ordered fault list; the phase schedule and the
	// invariants follow from it.
	Faults []Fault
}

func (sc Scenario) has(f Fault) bool { return slices.Contains(sc.Faults, f) }

// wired reports whether a single-node run is served over both wires: only
// when no fault reaches inside the server (the stall and drop hook, the
// burst repairer, a kill that replaces it), which runs the loop in process.
func (sc Scenario) wired() bool {
	return sc.Replicas == 0 && !slices.ContainsFunc(sc.Faults, func(f Fault) bool { return f != Swap })
}

// validate refuses a scenario that cannot run, before anything is built, and
// returns its tier.
func (sc Scenario) validate() (tierPlan, error) {
	plan, err := planFor(sc.Scheme)
	if err != nil {
		return plan, err
	}
	switch {
	case sc.N < 8 || sc.Workers < 1 || sc.Lookups == 0 || sc.Replicas < 0 || sc.Groups < 0:
		return plan, fmt.Errorf("chaos: scenario needs n ≥ 8, workers, lookups and a shape (n=%d workers=%d lookups=%d replicas=%d groups=%d)",
			sc.N, sc.Workers, sc.Lookups, sc.Replicas, sc.Groups)
	case sc.Groups > 0 && sc.Replicas == 0:
		return plan, errors.New("chaos: shard groups need replicas")
	case sc.Groups > 0 && plan.strict:
		return plan, fmt.Errorf("chaos: shard groups serve the tables tier; %q is a full-tier scheme", sc.Scheme)
	}
	for _, f := range sc.Faults {
		switch {
		case f < Stall || f > Split:
			return plan, fmt.Errorf("chaos: unknown fault %v", f)
		case f == Promote && sc.Replicas == 0:
			return plan, errors.New("chaos: promote needs replicas")
		case f == Split && sc.Groups == 0:
			return plan, errors.New("chaos: split needs shard groups")
		case (f <= Swap) != (sc.Replicas == 0):
			return plan, fmt.Errorf("chaos: fault %v does not fit the shape (replicas=%d)", f, sc.Replicas)
		case (f == KillRestore || f == Burst) && !plan.strict:
			return plan, fmt.Errorf("chaos: fault %v compares packed matrices; %q serves the tables tier", f, sc.Scheme)
		case f == CrashRestart && sc.Groups > 0:
			return plan, errors.New("chaos: crash-restart needs the replicated shape's durable WAL")
		}
	}
	return plan, nil
}

// Run executes one scenario and grades every answer. The returned report is
// complete even when the run fails; the error says which invariant broke.
func Run(sc Scenario) (*Report, error) {
	plan, err := sc.validate()
	if err != nil {
		return nil, err
	}
	if sc.Replicas == 0 {
		return runSingle(sc, plan)
	}
	return runGroups(sc, plan)
}

// Gate is one row of the table `make <gate>` runs: the Makefile target, its
// scenario, and the docs/ CSV artefact the row regenerates ("" for none). The
// crash row runs RunCrash on its scenario's scheme, n and seed.
type Gate struct {
	Name string
	Scenario
	Crash    bool
	Artefact string
}

// The fault lists of the gate rows.
var (
	chaosFaults   = []Fault{Stall, Stall, Drop, Drop, Burst, Burst, Burst, Burst, Burst, KillRestore}
	clusterFaults = []Fault{Churn, CrashRestart, Partition, Corrupt, Truncate, Promote, Churn}
	shardFaults   = []Fault{Churn, Partition, Corrupt, Split, Promote, Churn}
)

// Gates is the gate table, one row per Makefile target.
var Gates = []Gate{
	// Mixed-protocol smoke: JSON-HTTP and RTBIN1 binary-TCP clients race the
	// same engine through real loopback listeners while snapshots swap
	// mid-load; fails on any incorrect or errored answer on either wire, or
	// if either protocol missed the swaps.
	{Name: "wiresmoke", Scenario: Scenario{Scheme: "fulltable", N: 24, Seed: 1, Lookups: 20_000, Workers: 4,
		Faults: []Fault{Swap, Swap}}},
	// Stalls, drops, churn bursts, and a kill+restore cycle on a small graph;
	// fails on any incorrect answer, out-of-budget detour, non-identical
	// restore, or broken availability budget. The full artefact is
	// docs/chaos_n256.csv (E15).
	{Name: "chaos", Scenario: Scenario{Scheme: "fulltable", N: 48, Seed: 1, Lookups: 60_000, Workers: 4,
		Faults: chaosFaults}, Artefact: "docs/chaos_n256.csv"},
	// Replicated chaos on the full tier: a primary + two replicas on a small
	// graph surviving replica partitions, a kill -9 of the primary recovered
	// from its WAL, a WAL corruption, a WAL truncation, and a primary kill +
	// promotion; fails on any incorrect answer, sub-99% availability, or
	// tables that are not byte-identical at quiesce. The full artefact is
	// docs/cluster_n256.csv (E16).
	{Name: "cluster", Scenario: Scenario{Scheme: "fulltable", N: 32, Seed: 1, Lookups: 40_000, Workers: 4,
		Replicas: 2, Faults: clusterFaults}, Artefact: "docs/cluster_n256.csv"},
	// Deterministic crash-recovery matrix (DESIGN.md §13, EXPERIMENTS.md
	// E17): every byte boundary of a multi-segment WAL schedule, and every
	// record boundary — clean and torn mid-frame — of an engine churn
	// schedule, must recover to the exact durable prefix under the original
	// epoch with a byte-identical (digest-equal) table.
	{Name: "crash", Scenario: Scenario{Scheme: "fulltable", N: 24, Seed: 5}, Crash: true},
	// Large-graph smoke: an n=4096 tables-tier landmark snapshot over a sparse
	// avg-degree-8 topology — sixteen times past the old n=256 ceiling, with
	// no all-pairs matrix anywhere — serves lookups over both wires with
	// connectivity-safe hot swaps, every answer spot-graded against on-demand
	// BFS ground truth; fails on any stretch > 3, unreachable next hop, or a
	// snapshot that is not o(n²).
	{Name: "bigsmoke", Scenario: Scenario{Scheme: "landmark", N: 4096, Seed: 1, Lookups: 10_000, Workers: 4,
		Faults: []Fault{Swap, Swap}}},
	// The cluster gate on the tables tier: a three-member landmark cluster on
	// an n=4096 sparse topology surviving the same faults, replicas replaying
	// edge diffs through landmark rebuilds and verifying the scheme-table CRC
	// on every record; fails on any spot-graded stretch-3 violation, sub-98%
	// availability, failed promotion, or scheme tables that are not
	// byte-identical at quiesce. The full artefact is
	// docs/bigcluster_n4096.csv (E20).
	{Name: "bigcluster", Scenario: Scenario{Scheme: "landmark", N: 4096, Seed: 1, Lookups: 20_000, Workers: 4,
		Replicas: 2, Faults: clusterFaults}, Artefact: "docs/bigcluster_n4096.csv"},
	// Partitioned cluster: the n=4096 source keyspace split across two shard
	// groups (each a tables-tier primary/replica pair) behind the
	// scatter-gather front, surviving per-group replica partitions from the
	// seeded partition plan (a replica that applies a record published after
	// its cut fails the run), a wire corruption, a live shard split racing churn, and a shard-primary kill +
	// in-group promotion, with full cross-shard routes walked at quiesce;
	// fails on one incorrect answer, a stretch-3 violation, a shard below 99%
	// availability, or non-converged digests. The full artefact is
	// docs/shard_n4096.csv (E21).
	{Name: "shardchaos", Scenario: Scenario{Scheme: "landmark", N: 4096, Seed: 1, Lookups: 20_000, Workers: 4,
		Replicas: 1, Groups: 2, Faults: shardFaults}, Artefact: "docs/shard_n4096.csv"},
}

// Errors a run can fail with (the report is always returned alongside).
var (
	ErrIncorrect      = errors.New("chaos: incorrect answers served")
	ErrBudget         = errors.New("chaos: unavailability budget exceeded")
	ErrDetourBudget   = errors.New("chaos: degraded detour exceeded +2 hop budget")
	ErrUngraded       = errors.New("chaos: answers went ungraded")
	ErrRestore        = errors.New("chaos: restored snapshot not byte-identical")
	ErrNotHealed      = errors.New("chaos: topology did not self-heal after repairs")
	ErrDiverged       = errors.New("chaos: cluster members diverged at quiesce")
	ErrFailover       = errors.New("chaos: cluster did not recover from primary kill")
	ErrRecovery       = errors.New("chaos: primary crash-restart did not recover via WAL")
	ErrLeak           = errors.New("chaos: a partitioned replica applied records published after the cut")
	ErrSplit          = errors.New("chaos: shard split did not complete")
	ErrProtocolUnused = errors.New("chaos: a wire protocol served no lookups")
	ErrNoSwap         = errors.New("chaos: clients saw no hot swap")
)

// The single-node unavailability budget and the per-shard availability
// floor; the group shapes' budget is the tier's.
const (
	singleBudget         = 0.10
	minShardAvailability = 0.99
)

// Report is one run's graded outcome. The ledger, the strict counts (full
// tier) and the spot totals (tables tier) are common to every shape; the
// rest is filled by the shape and faults that produce it and left out of the
// JSON otherwise.
type Report struct {
	Scheme      string `json:"scheme"`
	Tier        string `json:"tier"`
	N           int    `json:"n"`
	Seed        int64  `json:"seed"`
	Groups      int    `json:"groups,omitempty"`
	FinalGroups int    `json:"final_groups,omitempty"`
	Replicas    int    `json:"replicas,omitempty"`
	// Members counts every member the run stood up, dead ones included.
	Members   int `json:"members,omitempty"`
	Landmarks int `json:"landmarks,omitempty"`

	Ledger
	Correct            uint64 `json:"correct"`
	Degraded           uint64 `json:"degraded"`
	Incorrect          uint64 `json:"incorrect"`
	MaxDetourExtraHops int64  `json:"max_detour_extra_hops"`
	SpotTotals
	SpotMeanStretchMilli int64 `json:"spot_mean_stretch_milli,omitempty"`
	// Violation is the first spot or route-walk violation, verbatim.
	Violation   string `json:"violation,omitempty"`
	WalksGraded int    `json:"walks_graded,omitempty"`

	// The single node. P50ns and P99ns are the server's own per-lookup
	// latency (serve_latency_ns), frozen before a kill replaces the server.
	BuildNs           int64  `json:"build_ns,omitempty"`
	SnapshotBytes     int    `json:"snapshot_bytes"`
	JSONLookups       uint64 `json:"json_lookups,omitempty"`
	BinLookups        uint64 `json:"bin_lookups,omitempty"`
	P50ns             int64  `json:"p50_ns,omitempty"`
	P99ns             int64  `json:"p99_ns,omitempty"`
	Stalls            int    `json:"stalls,omitempty"`
	Drops             int    `json:"drops,omitempty"`
	Bursts            int    `json:"bursts,omitempty"`
	BurstEvents       int    `json:"burst_events,omitempty"`
	Trips             uint64 `json:"breaker_trips,omitempty"`
	Shunts            uint64 `json:"breaker_shunts,omitempty"`
	Kills             int    `json:"kills,omitempty"`
	RecoveryNs        int64  `json:"recovery_ns,omitempty"`
	RestoredIdentical bool   `json:"restored_identical,omitempty"`
	SelfHealed        bool   `json:"self_healed,omitempty"`
	Swaps             int    `json:"swaps,omitempty"`
	SeqsSeen          int    `json:"seqs_seen,omitempty"`
	FinalSeq          uint64 `json:"final_seq,omitempty"`

	// The group shapes.
	ChurnRounds     int    `json:"churn_rounds,omitempty"`
	Partitions      int    `json:"partitions,omitempty"`
	Corruptions     int    `json:"corruptions,omitempty"`
	Truncations     int    `json:"truncations,omitempty"`
	CrashRestarts   int    `json:"crash_restarts,omitempty"`   // kill -9 + cold restarts performed
	WalRecovered    bool   `json:"wal_recovered,omitempty"`    // restart resumed its epoch from the WAL
	RecoveryResyncs uint64 `json:"recovery_resyncs,omitempty"` // full resyncs caused by the restart (must be 0)
	SplitDone       bool   `json:"split_done,omitempty"`
	SplitNs         int64  `json:"split_ns,omitempty"`
	MapEpoch        uint64 `json:"map_epoch,omitempty"`
	Promoted        bool   `json:"promoted,omitempty"`
	FinalEpoch      uint64 `json:"final_epoch,omitempty"`
	FailoverNs      int64  `json:"failover_ns,omitempty"`
	Resyncs         uint64 `json:"resyncs,omitempty"`
	MaxReplayLag    uint64 `json:"max_replay_lag,omitempty"`
	// SettleTimeouts counts waits for the replicas to catch up that ran out
	// their deadline; a healthy run has none.
	SettleTimeouts int `json:"settle_timeouts,omitempty"`
	// ResyncBytes is the encoded state a joining or resyncing member of the
	// largest group actually receives; MatrixBytes is n², the
	// one-byte-per-pair packed distance matrix the tables tier never
	// materialises. n² is only a lower bound on what a full-tier resync
	// ships: that is the whole arena (matrix and scheme tables), so a
	// full-tier run's ResyncBytes is the figure to compare against.
	ResyncBytes             int           `json:"resync_bytes,omitempty"`
	MatrixBytes             uint64        `json:"matrix_bytes,omitempty"`
	MinShardAvailabilityPct float64       `json:"min_shard_availability_pct,omitempty"`
	DigestsConverged        bool          `json:"digests_converged,omitempty"`
	TablesIdentical         bool          `json:"tables_identical,omitempty"`
	TopologiesEqual         bool          `json:"topologies_equal,omitempty"`
	PerMember               []MemberStats `json:"per_member,omitempty"`
	PerShard                []ShardStats  `json:"per_shard,omitempty"`
}

// MemberStats is one member's share of a replicated run.
type MemberStats struct {
	Name   string  `json:"name"`
	Served uint64  `json:"served"`
	QPS    float64 `json:"qps"`
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

// String renders the headline figures; the JSON report has the rest.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s n=%d replicas=%d groups=%d: %d lookups (%.0f qps), %.3f%% available (rejected=%d unavailable=%d errored=%d), strict correct=%d degraded=%d incorrect=%d detour +%d, spot graded=%d violations=%d max stretch %.3f, %d walks, settle timeouts=%d",
		r.Scheme, r.Tier, r.N, r.Replicas, r.Groups, r.Lookups, r.QPS, r.AvailabilityPct, r.Rejected, r.Unavailable,
		r.Errored, r.Correct, r.Degraded, r.Incorrect, r.MaxDetourExtraHops, r.SpotGraded, r.SpotViolations,
		float64(r.SpotMaxStretchMilli)/1000, r.WalksGraded, r.SettleTimeouts)
}

// verdict checks a finished run's report against the invariants its scenario
// implies: every answer, the shape's budget and convergence, then one check
// per fault kind in the list.
func verdict(sc Scenario, r *Report) error {
	budget := singleBudget
	if sc.Replicas > 0 {
		plan, _ := planFor(sc.Scheme)
		budget = plan.budget
	}
	unserved := r.Lookups - r.Served
	switch {
	case r.Incorrect > 0:
		return fmt.Errorf("%w: %d of %d %s", ErrIncorrect, r.Incorrect, r.Lookups, r.Violation)
	case sc.Replicas == 0 && r.Errored > 0:
		return fmt.Errorf("%w: %d of %d errored", ErrIncorrect, r.Errored, r.Lookups)
	case r.MaxDetourExtraHops > 2:
		return fmt.Errorf("%w: +%d hops", ErrDetourBudget, r.MaxDetourExtraHops)
	case r.SpotViolations > 0:
		return fmt.Errorf("%w: %d spot violations, first: %s", ErrIncorrect, r.SpotViolations, r.Violation)
	case r.Tier == serve.TierTables && r.SpotGraded == 0:
		return fmt.Errorf("%w: no answers were spot-graded (lookups=%d)", ErrUngraded, r.Lookups)
	case float64(unserved) > budget*float64(r.Lookups):
		return fmt.Errorf("%w: %d of %d unserved (budget %.0f%%)", ErrBudget, unserved, r.Lookups, 100*budget)
	case sc.Groups > 0 && r.MinShardAvailabilityPct < 100*minShardAvailability:
		return fmt.Errorf("%w: worst shard availability %.3f%% (floor %.1f%%)",
			ErrBudget, r.MinShardAvailabilityPct, 100*minShardAvailability)
	case sc.Replicas > 0 && (!r.DigestsConverged || !r.TablesIdentical || !r.TopologiesEqual):
		return fmt.Errorf("%w: digests converged=%v, tables identical=%v, topologies equal=%v",
			ErrDiverged, r.DigestsConverged, r.TablesIdentical, r.TopologiesEqual)
	case sc.Replicas > 0 && r.WalksGraded == 0:
		return fmt.Errorf("%w: no quiesce route walks were graded", ErrUngraded)
	case sc.has(KillRestore) && !r.RestoredIdentical:
		return ErrRestore
	case sc.has(Burst) && !r.SelfHealed:
		return ErrNotHealed
	case sc.has(CrashRestart) && !r.WalRecovered:
		return ErrRecovery
	case sc.has(Promote) && !r.Promoted:
		return ErrFailover
	case sc.has(Split) && !r.SplitDone:
		return ErrSplit
	case sc.wired() && (r.JSONLookups == 0 || r.BinLookups == 0):
		return fmt.Errorf("%w: %d json, %d binary", ErrProtocolUnused, r.JSONLookups, r.BinLookups)
	case sc.has(Swap) && (r.Swaps == 0 || r.SeqsSeen < 2):
		return fmt.Errorf("%w: %d swaps, %d snapshot seqs answered", ErrNoSwap, r.Swaps, r.SeqsSeen)
	}
	return nil
}

// The artefact header rows (EXPERIMENTS.md E15, E16/E20 and E21): single-node
// reports render as CSVHeader, replicated ones as ClusterCSVHeader (one
// layout for both tiers), sharded ones as ShardCSVHeader.
const (
	CSVHeader        = "scheme,n,seed,lookups,correct,degraded,rejected,unavailable,errored,incorrect,availability_pct,p99_under_chaos_ns,max_detour_extra_hops,bursts,burst_events,kills,breaker_trips,breaker_shunts,recovery_ns,restored_identical,self_healed,qps"
	ClusterCSVHeader = "scheme,tier,n,seed,members,landmarks,lookups,served,rejected,unavailable,errored,correct,degraded,incorrect,availability_pct,spot_graded,spot_violations,spot_max_stretch_milli,churn_rounds,partitions,corruptions,truncations,promoted,final_epoch,resyncs,max_replay_lag,settle_timeouts,failover_ns,snapshot_bytes,resync_bytes,matrix_bytes,digests_converged,tables_identical,qps"
	ShardCSVHeader   = "n,seed,groups,final_groups,replicas,lookups,served,rejected,unavailable,errored,availability_pct,min_shard_availability_pct,spot_graded,spot_violations,spot_max_stretch_milli,walks_graded,churn_rounds,partitions,corruptions,split_done,split_ns,map_epoch,promoted,failover_ns,resyncs,max_replay_lag,max_shard_resync_bytes,digests_converged,tables_identical,topologies_equal,qps"
)

// WriteCSV renders reports of one shape — the first report's — in that
// shape's artefact layout: a header row, then one row per report.
func WriteCSV(w io.Writer, reports []*Report) error {
	if len(reports) == 0 {
		return nil
	}
	header, row := CSVHeader, func(r *Report) string {
		return fmt.Sprintf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%v,%v,%.0f",
			r.Scheme, r.N, r.Seed, r.Lookups, r.Correct, r.Degraded, r.Rejected, r.Unavailable,
			r.Errored, r.Incorrect, r.AvailabilityPct, r.P99ns, r.MaxDetourExtraHops,
			r.Bursts, r.BurstEvents, r.Kills, r.Trips, r.Shunts, r.RecoveryNs,
			r.RestoredIdentical, r.SelfHealed, r.QPS)
	}
	switch {
	case reports[0].Groups > 0:
		header, row = ShardCSVHeader, func(r *Report) string {
			return fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%v,%d,%d,%v,%d,%d,%d,%d,%v,%v,%v,%.0f",
				r.N, r.Seed, r.Groups, r.FinalGroups, r.Replicas, r.Lookups, r.Served,
				r.Rejected, r.Unavailable, r.Errored, r.AvailabilityPct, r.MinShardAvailabilityPct,
				r.SpotGraded, r.SpotViolations, r.SpotMaxStretchMilli, r.WalksGraded,
				r.ChurnRounds, r.Partitions, r.Corruptions, r.SplitDone, r.SplitNs,
				r.MapEpoch, r.Promoted, r.FailoverNs, r.Resyncs, r.MaxReplayLag,
				r.ResyncBytes, r.DigestsConverged, r.TablesIdentical, r.TopologiesEqual, r.QPS)
		}
	case reports[0].Replicas > 0:
		header, row = ClusterCSVHeader, func(r *Report) string {
			return fmt.Sprintf("%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%v,%d,%d,%d,%d,%d,%d,%d,%d,%v,%v,%.0f",
				r.Scheme, r.Tier, r.N, r.Seed, r.Members, r.Landmarks, r.Lookups, r.Served,
				r.Rejected, r.Unavailable, r.Errored, r.Correct, r.Degraded, r.Incorrect,
				r.AvailabilityPct, r.SpotGraded, r.SpotViolations, r.SpotMaxStretchMilli,
				r.ChurnRounds, r.Partitions, r.Corruptions, r.Truncations, r.Promoted,
				r.FinalEpoch, r.Resyncs, r.MaxReplayLag, r.SettleTimeouts, r.FailoverNs,
				r.SnapshotBytes, r.ResyncBytes, r.MatrixBytes,
				r.DigestsConverged, r.TablesIdentical, r.QPS)
		}
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range reports {
		if _, err := fmt.Fprintln(w, row(r)); err != nil {
			return err
		}
	}
	return nil
}
