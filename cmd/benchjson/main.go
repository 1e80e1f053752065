// Command benchjson regenerates the checked-in performance artefacts. Each
// run selects measurement sections (-sections) and an artefact name
// (-artefact), so one binary produces both:
//
//	BENCH_pr2.json  (`make bench`):     -sections bfs,cache,resilience
//	  ns/op for the two all-pairs BFS kernels at n ∈ {256, 1024}, the shared
//	  distance cache cold vs hit, and the E13 resilience-sweep wall time.
//	BENCH_pr3.json  (`make loadbench`): -sections serve
//	  closed-loop serving-layer load reports (QPS, p50/p99 latency) for the
//	  fulltable and compact schemes on G(256, 1/2) with ten snapshot
//	  hot-swaps mid-load; the run fails if any lookup is answered
//	  incorrectly, rejected, or errored.
//	BENCH_pr4.json  (`make chaosbench`): -sections chaos
//	  graded chaos-harness reports (availability %, p99 under stall/chaos,
//	  kill-recovery time) for the fulltable and compact schemes on
//	  G(256, 1/2) under seeded churn bursts, shard stalls, batch drops, and
//	  kill+restore cycles; the run fails on any incorrect answer, any detour
//	  beyond +2 hops, any non-byte-identical restore, or a broken
//	  unavailability budget.
//	BENCH_pr5.json  (`make clusterbench`): -sections cluster
//	  replicated cluster chaos reports (per-member QPS, failover latency
//	  after a primary kill + promotion, WAL replay lag, resync count) for a
//	  three-member G(256, 1/2) cluster per scheme, surviving replica
//	  partitions, WAL corruption/truncation, and a primary kill; the run
//	  fails on any incorrect answer, sub-99% availability, or tables that
//	  are not byte-identical at quiesce.
//	BENCH_pr6.json  (`make crashbench`): -sections wal
//	  durable WAL append throughput per fsync policy (always / batch / off)
//	  on a real on-disk segment store: ns per append and the implied
//	  appends/sec, quantifying what PolicyAlways — the only policy that may
//	  resume its epoch after a crash (DESIGN.md §13) — costs per record.
//	BENCH_pr8.json  (`make bigbench`): -sections big
//	  the n-sweep behind the tables tier: bytes/node, build time, spot-graded
//	  serving QPS, and observed stretch for fulltable vs landmark on sparse
//	  topologies up to n=16384 (fulltable capped at 4096 — the all-pairs
//	  ceiling the tier exists to break) plus fulltable vs compact on dense
//	  G(n, 1/2). Fails if landmark does not beat fulltable on bytes/node at
//	  the largest common n or if any spot-graded answer broke stretch 3.
//	BENCH_pr10.json (`make shardbench`): -sections shard
//	  partitioned-cluster chaos vs a single-group baseline at n=4096: a
//	  two-shard-group landmark cluster (live split, partitions, wire
//	  corruption, shard-primary kill) against a 3-member replicated group
//	  on the same topology — aggregate QPS and per-shard resync payloads,
//	  failing unless every shard's resync bytes are strictly below the
//	  baseline's.
//
// `make verify` runs the -quick one-iteration smoke over every section so
// the measured paths stay exercised.
//
// Methodology (recorded in EXPERIMENTS.md): every measurement warms up once
// un-timed, then iterates until the time budget is spent (-quick: exactly one
// timed iteration). Graphs are seed-fixed G(n, 1/2) samples, so two runs
// measure the same workload; timings of course vary with the host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"math/rand"

	"routetab/internal/cluster/walstore"
	"routetab/internal/eval"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/chaos"
	"routetab/internal/serve/httpapi"
	"routetab/internal/serve/loadgen"
	"routetab/internal/serve/wire"
	"routetab/internal/shortestpath"
)

// WalBench is one fsync policy's measurement in the "wal" section: the cost
// of one durable append (64-byte payload) to an on-disk segment store, and
// the implied sustained append rate.
type WalBench struct {
	Policy        string  `json:"policy"`
	Appends       int     `json:"appends"`
	PayloadBytes  int     `json:"payload_bytes"`
	NsPerAppend   float64 `json:"ns_per_append"`
	AppendsPerSec float64 `json:"appends_per_sec"`
}

// WireBench is one transport's closed-loop measurement in the "wire"
// section: the same seeded workload driven in-process, over JSON HTTP, and
// over the RTBIN1 binary TCP protocol at a given GOMAXPROCS. For the two
// network transports P50/P99 are client-side whole-batch round-trips;
// in-process rows keep the server-side per-job latency (the BENCH_pr3
// convention), so compare transports against each other, not against inproc
// latency.
type WireBench struct {
	Transport  string  `json:"transport"` // inproc | json-http | bin-tcp
	Scheme     string  `json:"scheme"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Lookups    uint64  `json:"lookups"`
	QPS        float64 `json:"qps"`
	P50ns      int64   `json:"p50_ns"`
	P99ns      int64   `json:"p99_ns"`
}

// BigBench is one (family, scheme, n) row in the "big" section: build time,
// snapshot arena size (bytes/node is the o(n²) headline), spot-graded serving
// throughput, and observed stretch ×1000 (1000 = shortest paths).
type BigBench struct {
	Family           string  `json:"family"` // sparse | gnhalf
	N                int     `json:"n"`
	Scheme           string  `json:"scheme"`
	Tier             string  `json:"tier"`
	BuildMs          float64 `json:"build_ms"`
	SnapshotBytes    int     `json:"snapshot_bytes"`
	BytesPerNode     float64 `json:"bytes_per_node"`
	Lookups          uint64  `json:"lookups"`
	QPS              float64 `json:"qps"`
	SpotGraded       uint64  `json:"spot_graded,omitempty"`
	MaxStretchMilli  int64   `json:"max_stretch_milli"`
	MeanStretchMilli int64   `json:"mean_stretch_milli"`
}

// Result is one measurement in the artefact.
type Result struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ShardBench is the "shard" section's headline row: the sharded cluster's
// aggregate throughput and worst per-shard resync payload against a 3-member
// single-group replicated baseline on the same seeded topology.
type ShardBench struct {
	N                       int     `json:"n"`
	FinalGroups             int     `json:"final_groups"` // groups after the live split
	QPS                     float64 `json:"qps"`
	BaselineQPS             float64 `json:"baseline_qps"`
	MaxShardResyncBytes     int     `json:"max_shard_resync_bytes"`
	BaselineResyncBytes     int     `json:"baseline_resync_bytes"`
	ResyncShrinkPct         float64 `json:"resync_shrink_pct"`
	MinShardAvailabilityPct float64 `json:"min_shard_availability_pct"`
}

// Report is the artefact schema (BENCH_pr2.json, BENCH_pr3.json).
type Report struct {
	Artefact   string   `json:"artefact"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Quick      bool     `json:"quick"`
	Sections   []string `json:"sections"`
	Results    []Result `json:"results,omitempty"`
	// Loadgen carries the serving-layer closed-loop reports (section
	// "serve"): QPS and latency quantiles per scheme, with validation and
	// hot-swap tallies.
	Loadgen []*loadgen.Report `json:"loadgen,omitempty"`
	// Chaos carries the graded chaos-harness reports (section "chaos"):
	// availability, p99 under stall, and kill-recovery time per scheme. The
	// run fails if any lookup was answered incorrectly, any detour exceeded
	// the +2-hop budget, any restore was not byte-identical, or
	// unavailability broke its budget.
	Chaos []*chaos.Report `json:"chaos,omitempty"`
	// Cluster carries the replicated cluster chaos reports (section
	// "cluster"): per-member QPS, failover latency, WAL replay lag, and
	// resync counts for a primary + replicas group surviving partitions,
	// WAL corruption/truncation, and a primary kill + promotion.
	Cluster []*chaos.ClusterReport `json:"cluster,omitempty"`
	// Wire carries the protocol-comparison matrix (section "wire"): the
	// same closed-loop workload over in-process calls, JSON HTTP, and the
	// RTBIN1 binary TCP protocol at GOMAXPROCS 1/4/16. The run fails if the
	// binary transport does not clear 2× the JSON transport's throughput at
	// GOMAXPROCS=1.
	Wire []WireBench `json:"wire,omitempty"`
	// Big carries the large-graph tier sweep (section "big"): bytes/node,
	// build time, and spot-graded serving figures for the tables-tier
	// landmark scheme against full-tier baselines across n up to 16384.
	Big []BigBench `json:"big,omitempty"`
	// BigCluster carries the tables-tier cluster chaos reports (section
	// "bigcluster"): spot-graded availability, failover latency, replay lag,
	// and the resync payload (encoded scheme tables vs the hypothetical n²
	// matrix) for a three-member landmark cluster at n=4096 surviving
	// partitions, WAL corruption/truncation, and a primary kill + promotion.
	BigCluster []*chaos.ClusterReport `json:"bigcluster,omitempty"`
	// Shard carries the partitioned-cluster chaos reports (section "shard"):
	// a two-shard-group landmark cluster at n=4096 under the shard failure
	// matrix (live split racing churn, per-group partitions, wire
	// corruption, shard-primary kill + promotion), with per-shard
	// availability and resync payloads.
	Shard []*chaos.ShardReport `json:"shard,omitempty"`
	// ShardVsBaseline is the shard section's headline comparison: the
	// sharded cluster's aggregate QPS and worst per-shard resync payload
	// against a 3-member single-group replicated baseline on the same
	// topology. The run fails unless every shard's resync payload is
	// strictly below the baseline's — the byte economics the keyspace
	// partition exists for.
	ShardVsBaseline *ShardBench `json:"shard_vs_baseline,omitempty"`
	// Wal carries the WAL append-throughput measurements (section "wal"):
	// ns per append and appends/sec for each fsync policy on a real on-disk
	// segment store. The fsync=always row is the per-record price of
	// crash-resumable durability.
	Wal []WalBench `json:"wal,omitempty"`
	// BitsetSpeedupN1024 is list ns/op ÷ bitset ns/op on G(1024, 1/2) —
	// the PR 2 tentpole acceptance ratio (must be ≥ 3). Section "bfs".
	BitsetSpeedupN1024 float64 `json:"bitset_speedup_n1024,omitempty"`
	// CacheSpeedupN256 is uncached ns/op ÷ cached-hit ns/op on G(256, 1/2).
	// Section "cache".
	CacheSpeedupN256 float64 `json:"cache_speedup_n256,omitempty"`
}

// knownSections lists every measurement group benchjson understands.
var knownSections = []string{"bfs", "cache", "resilience", "serve", "chaos", "cluster", "wal", "wire", "big", "bigcluster", "shard"}

func parseSections(csv string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, s := range knownSections {
		known[s] = true
	}
	picked := map[string]bool{}
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !known[s] {
			return nil, fmt.Errorf("unknown section %q (have %s)", s, strings.Join(knownSections, ", "))
		}
		picked[s] = true
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no sections selected")
	}
	return picked, nil
}

// measure runs fn once un-timed, then iterates until budget is spent
// (budget 0 → exactly one timed iteration).
func measure(name string, budget time.Duration, fn func() error) (Result, error) {
	if err := fn(); err != nil {
		return Result{}, fmt.Errorf("%s warm-up: %w", name, err)
	}
	iters := 0
	start := time.Now()
	for {
		if err := fn(); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
		iters++
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	return Result{Name: name, Iters: iters, NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters)}, nil
}

// runSuite produces the report for the selected sections; split out of main
// for the smoke test.
func runSuite(quick bool, artefact string, sections map[string]bool) (*Report, error) {
	budget := 2 * time.Second
	if quick {
		budget = 0
	}
	rep := &Report{
		Artefact:   artefact,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	for s := range sections {
		rep.Sections = append(rep.Sections, s)
	}
	sort.Strings(rep.Sections)
	var nsPerOp = map[string]float64{}
	add := func(r Result, err error) error {
		if err != nil {
			return err
		}
		nsPerOp[r.Name] = r.NsPerOp
		rep.Results = append(rep.Results, r)
		return nil
	}

	// Old-vs-new BFS: one op = one full n-source all-pairs pass.
	if sections["bfs"] {
		for _, n := range []int{256, 1024} {
			g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(42)))
			if err != nil {
				return nil, err
			}
			g.Neighbors(1)
			for _, k := range []struct {
				name  string
				strat shortestpath.Strategy
			}{
				{"bfs_list", shortestpath.StrategyList},
				{"bfs_bitset", shortestpath.StrategyBitset},
			} {
				k := k
				err := add(measure(fmt.Sprintf("%s_n%d", k.name, n), budget, func() error {
					_, err := shortestpath.AllPairsStrategy(g, k.strat)
					return err
				}))
				if err != nil {
					return nil, err
				}
			}
		}
		if l, b := nsPerOp["bfs_list_n1024"], nsPerOp["bfs_bitset_n1024"]; b > 0 {
			rep.BitsetSpeedupN1024 = l / b
		}
	}

	// Shared distance cache: cold compute vs (graph, version)-keyed hit.
	if sections["cache"] {
		g, err := gengraph.GnHalf(256, rand.New(rand.NewSource(43)))
		if err != nil {
			return nil, err
		}
		err = add(measure("allpairs_uncached_n256", budget, func() error {
			_, err := shortestpath.AllPairs(g)
			return err
		}))
		if err != nil {
			return nil, err
		}
		cache := shortestpath.NewCache(2)
		if _, err := cache.AllPairs(g); err != nil {
			return nil, err
		}
		err = add(measure("allpairs_cached_n256", budget, func() error {
			_, err := cache.AllPairs(g)
			return err
		}))
		if err != nil {
			return nil, err
		}
		if u, c := nsPerOp["allpairs_uncached_n256"], nsPerOp["allpairs_cached_n256"]; c > 0 {
			rep.CacheSpeedupN256 = u / c
		}
	}

	// E13 resilience sweep wall time (parallel harness end to end). Quick
	// mode mirrors the Makefile smoke scale; full mode runs the two
	// shortest-path schemes at the artefact scale n=64.
	if sections["resilience"] {
		cfg := eval.ResilienceConfig{
			N: 64, Seed: 1, Pairs: 200,
			Probs:   eval.DefaultFailureProbs(),
			Schemes: []string{"fulltable", "fullinfo"},
		}
		name := "e13_sweep_n64"
		if quick {
			cfg = eval.ResilienceConfig{
				N: 32, Seed: 1, Pairs: 40,
				Probs:   []float64{0, 0.05, 0.1},
				Schemes: []string{"fulltable", "fullinfo"},
			}
			name = "e13_sweep_n32"
		}
		err := add(measure(name, 0, func() error { // wall time: one iteration
			_, err := eval.Resilience(cfg)
			return err
		}))
		if err != nil {
			return nil, err
		}
	}

	// Serving layer: closed-loop load against routetabd's engine — one
	// million validated lookups per scheme on G(256, 1/2) with ten snapshot
	// hot-swaps mid-load (quick: 20k lookups on G(64, 1/2), two swaps).
	if sections["serve"] {
		n, lookups, swaps := 256, uint64(1_000_000), 10
		if quick {
			n, lookups, swaps = 64, 20_000, 2
		}
		for _, scheme := range []string{"fulltable", "compact"} {
			lrep, err := runLoad(scheme, n, lookups, swaps)
			if err != nil {
				return nil, err
			}
			rep.Loadgen = append(rep.Loadgen, lrep)
		}
	}

	// Chaos harness: graded serving under injected faults — stalls, drops,
	// seeded churn bursts, kill+restore cycles — one million lookups per
	// scheme on G(256, 1/2) (quick: 20k on G(64, 1/2)). The headline figures
	// are availability %, p99 under chaos, and recovery time after a kill.
	if sections["chaos"] {
		n, lookups := 256, uint64(1_000_000)
		if quick {
			n, lookups = 64, 20_000
		}
		for _, scheme := range []string{"fulltable", "compact"} {
			crep, err := chaos.Run(chaos.Config{
				N:       n,
				Seed:    1,
				Scheme:  scheme,
				Lookups: lookups,
			})
			if err != nil {
				return nil, fmt.Errorf("chaos %s: %w", scheme, err)
			}
			rep.Chaos = append(rep.Chaos, crep)
		}
	}

	// Replicated cluster chaos: a primary + two replicas on G(256, 1/2) per
	// scheme under client-side failover, surviving replica partitions, WAL
	// corruption/truncation, and a primary kill + promotion (quick: one
	// replica on G(24, 1/2), 10k lookups). Headline figures are per-member
	// QPS, failover latency, and WAL replay lag.
	if sections["cluster"] {
		n, replicas, lookups, workers := 256, 2, uint64(200_000), 6
		if quick {
			n, replicas, lookups, workers = 24, 1, 10_000, 2
		}
		for _, scheme := range []string{"fulltable", "compact"} {
			crep, err := chaos.RunCluster(chaos.ClusterConfig{
				N:        n,
				Seed:     1,
				Scheme:   scheme,
				Replicas: replicas,
				Lookups:  lookups,
				Workers:  workers,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster %s: %w", scheme, err)
			}
			rep.Cluster = append(rep.Cluster, crep)
		}
	}

	// Protocol matrix (the `make wirebench` artefact BENCH_pr7.json): the
	// same seeded closed loop over in-process calls, JSON HTTP, and binary
	// TCP at GOMAXPROCS 1/4/16 (quick: GOMAXPROCS 1 only). The binary
	// transport must clear 2× JSON throughput at GOMAXPROCS=1 — the
	// tentpole acceptance ratio.
	if sections["wire"] {
		wire, err := runWireMatrix(quick)
		if err != nil {
			return nil, err
		}
		rep.Wire = wire
	}

	// Durable WAL append throughput per fsync policy (the `make crashbench`
	// artefact BENCH_pr6.json): one op = one 64-byte record appended to an
	// on-disk segment store under always / batch / off. fsync=always pays
	// one fdatasync per record — the price of same-epoch crash recovery.
	if sections["wal"] {
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = byte(i * 37)
		}
		for _, pol := range []walstore.Policy{walstore.PolicyAlways, walstore.PolicyBatch, walstore.PolicyOff} {
			wb, r, err := runWalBench(pol, payload, budget)
			if err != nil {
				return nil, err
			}
			if err := add(r, nil); err != nil {
				return nil, err
			}
			rep.Wal = append(rep.Wal, wb)
		}
	}

	// Large-graph tier sweep (the `make bigbench` artefact BENCH_pr8.json):
	// fulltable (full tier) vs landmark (tables tier) on sparse avg-degree-8
	// topologies across n up to 16384, plus fulltable vs compact on dense
	// G(n, 1/2) where the diameter-2 construction applies. Full-tier rows are
	// strictly validated; tables-tier rows are spot-graded against on-demand
	// BFS ground truth. The headline column is bytes/node: fulltable grows
	// linearly in n (the n² matrix), landmark must not.
	if sections["big"] {
		big, err := runBigSweep(quick)
		if err != nil {
			return nil, err
		}
		rep.Big = big
	}

	// Tables-tier cluster chaos (the `make bigclusterbench` artefact
	// BENCH_pr9.json): a three-member landmark cluster on an n=4096 sparse
	// topology under the full replication failure matrix. The run fails on
	// any spot-graded stretch-3 violation, blown availability budget, failed
	// promotion, or non-identical scheme tables at quiesce.
	if sections["bigcluster"] {
		n, lookups, workers := 4096, 40_000, 4
		if quick {
			n, lookups, workers = 128, 4_000, 2
		}
		bcrep, err := chaos.RunCluster(chaos.ClusterConfig{
			N:        n,
			Seed:     1,
			Scheme:   "landmark",
			Replicas: 2,
			Lookups:  uint64(lookups),
			Workers:  workers,
		})
		if err != nil {
			return nil, fmt.Errorf("bigcluster: %w", err)
		}
		rep.BigCluster = append(rep.BigCluster, bcrep)
	}

	// Partitioned-cluster chaos vs the single-group baseline (the
	// `make shardbench` artefact BENCH_pr10.json): the same topology served
	// by a two-shard-group cluster (each group primary + replica behind the
	// scatter-gather front) and by one 3-member replicated group. The run
	// fails on any graded violation in either harness, or if any shard's
	// resync payload is not strictly below the single group's.
	if sections["shard"] {
		n, lookups, workers, seed := 4096, 20_000, 4, int64(1)
		if quick {
			n, lookups, workers, seed = 192, 6_000, 3, 7
		}
		srep, err := chaos.RunShard(chaos.ShardConfig{
			N:        n,
			Seed:     seed,
			Groups:   2,
			Replicas: 1,
			Lookups:  uint64(lookups),
			Workers:  workers,
		})
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		base, err := chaos.RunCluster(chaos.ClusterConfig{
			N:        n,
			Seed:     seed,
			Scheme:   "landmark",
			Replicas: 2,
			Lookups:  uint64(lookups),
			Workers:  workers,
		})
		if err != nil {
			return nil, fmt.Errorf("shard baseline: %w", err)
		}
		maxResync, minAvail := 0, 100.0
		for _, s := range srep.PerShard {
			if s.ResyncBytes > maxResync {
				maxResync = s.ResyncBytes
			}
			if s.AvailabilityPct < minAvail {
				minAvail = s.AvailabilityPct
			}
		}
		if maxResync >= base.ResyncBytes {
			return nil, fmt.Errorf("shard: worst per-shard resync payload %d B is not below the single-group baseline %d B",
				maxResync, base.ResyncBytes)
		}
		rep.Shard = append(rep.Shard, srep)
		rep.ShardVsBaseline = &ShardBench{
			N:                       n,
			FinalGroups:             srep.FinalGroups,
			QPS:                     srep.QPS,
			BaselineQPS:             base.QPS,
			MaxShardResyncBytes:     maxResync,
			BaselineResyncBytes:     base.ResyncBytes,
			ResyncShrinkPct:         100 * (1 - float64(maxResync)/float64(base.ResyncBytes)),
			MinShardAvailabilityPct: minAvail,
		}
	}

	return rep, nil
}

// runWalBench times appends under one fsync policy on a throwaway real
// directory, so fsync latency is the disk's, not a memory stub's.
func runWalBench(pol walstore.Policy, payload []byte, budget time.Duration) (WalBench, Result, error) {
	dir, err := os.MkdirTemp("", "walbench-")
	if err != nil {
		return WalBench{}, Result{}, err
	}
	defer os.RemoveAll(dir)
	st, err := walstore.Open(dir, walstore.Options{Fsync: pol})
	if err != nil {
		return WalBench{}, Result{}, err
	}
	name := "wal_append_fsync_" + pol.String()
	seq := uint64(0)
	r, merr := measure(name, budget, func() error {
		seq++
		return st.Append(seq, payload)
	})
	if cerr := st.Close(); cerr != nil && merr == nil {
		merr = fmt.Errorf("%s: close: %w", name, cerr)
	}
	if merr != nil {
		return WalBench{}, Result{}, merr
	}
	return WalBench{
		Policy:        pol.String(),
		Appends:       r.Iters,
		PayloadBytes:  len(payload),
		NsPerAppend:   r.NsPerOp,
		AppendsPerSec: 1e9 / r.NsPerOp,
	}, r, nil
}

// runWireMatrix measures the same fulltable workload across three transports
// at each GOMAXPROCS level, each row on a freshly built server (fresh
// histograms, fresh listeners). GOMAXPROCS is restored afterwards.
func runWireMatrix(quick bool) ([]WireBench, error) {
	const scheme = "fulltable"
	gmps := []int{1, 4, 16}
	n, lookups := 256, uint64(200_000)
	if quick {
		gmps = []int{1}
		n, lookups = 64, 5_000
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rows []WireBench
	qpsAt := map[[2]any]float64{}
	for _, gmp := range gmps {
		runtime.GOMAXPROCS(gmp)
		for _, transport := range []string{"inproc", "json-http", "bin-tcp"} {
			row, err := runWireRow(transport, scheme, n, gmp, lookups)
			if err != nil {
				return nil, fmt.Errorf("wire %s gomaxprocs=%d: %w", transport, gmp, err)
			}
			rows = append(rows, row)
			qpsAt[[2]any{transport, gmp}] = row.QPS
		}
	}
	// Tentpole acceptance: binary ≥ 2× JSON at GOMAXPROCS=1. Quick mode
	// still checks it — a smoke run that silently loses the headline ratio
	// is worse than a failing one.
	jsonQPS, binQPS := qpsAt[[2]any{"json-http", 1}], qpsAt[[2]any{"bin-tcp", 1}]
	if jsonQPS > 0 && binQPS < 2*jsonQPS {
		return rows, fmt.Errorf("wire: bin-tcp %.0f qps < 2× json-http %.0f qps at GOMAXPROCS=1", binQPS, jsonQPS)
	}
	return rows, nil
}

// runWireRow is one (transport, GOMAXPROCS) measurement. Network transports
// get real loopback listeners and client-side latency; the in-process row is
// the plain loadgen run, shards matched to the GOMAXPROCS level.
func runWireRow(transport, scheme string, n, gmp int, lookups uint64) (WireBench, error) {
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(42)))
	if err != nil {
		return WireBench{}, err
	}
	eng, err := serve.NewEngine(g, scheme)
	if err != nil {
		return WireBench{}, err
	}
	srv := serve.NewServer(eng, serve.ServerOptions{Shards: gmp, StretchSampleEvery: -1})
	defer srv.Close()

	cfg := loadgen.Config{Workers: 4, Lookups: lookups, Seed: 1}
	var lrep *loadgen.Report
	switch transport {
	case "inproc":
		lrep, err = loadgen.Run(srv, cfg)
	case "json-http":
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return WireBench{}, lerr
		}
		hs := &http.Server{Handler: httpapi.NewBatchHandler(srv)}
		go hs.Serve(ln)
		defer hs.Close()
		client := httpapi.NewBatchClient("http://"+ln.Addr().String(), nil)
		lrep, err = loadgen.RunTarget(client, loadgen.TargetMeta{Scheme: scheme, N: n}, cfg)
	case "bin-tcp":
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return WireBench{}, lerr
		}
		ws := wire.NewServer(srv)
		go ws.Serve(ln)
		defer ws.Close()
		client, derr := wire.Dial("bench", ln.Addr().String())
		if derr != nil {
			return WireBench{}, derr
		}
		defer client.Close()
		lrep, err = loadgen.RunTarget(client, loadgen.TargetMeta{Scheme: scheme, N: n}, cfg)
	default:
		return WireBench{}, fmt.Errorf("unknown transport %q", transport)
	}
	if err != nil {
		return WireBench{}, err
	}
	switch {
	case lrep.QPS <= 0:
		return WireBench{}, fmt.Errorf("no throughput")
	case lrep.Incorrect > 0:
		return WireBench{}, fmt.Errorf("%d incorrect lookups", lrep.Incorrect)
	case lrep.Rejected > 0:
		return WireBench{}, fmt.Errorf("%d rejected lookups", lrep.Rejected)
	case lrep.Errored > 0:
		return WireBench{}, fmt.Errorf("%d errored lookups", lrep.Errored)
	}
	return WireBench{
		Transport:  transport,
		Scheme:     scheme,
		GOMAXPROCS: gmp,
		Lookups:    lrep.Lookups,
		QPS:        lrep.QPS,
		P50ns:      lrep.P50ns,
		P99ns:      lrep.P99ns,
	}, nil
}

// runLoad drives one closed-loop load run against a freshly built server and
// fails on any incorrect, rejected, or errored lookup.
func runLoad(scheme string, n int, lookups uint64, swaps int) (*loadgen.Report, error) {
	g, err := gengraph.GnHalf(n, rand.New(rand.NewSource(42)))
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(g, scheme)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(eng, serve.ServerOptions{})
	defer srv.Close()
	rep, err := loadgen.Run(srv, loadgen.Config{
		Workers:  4,
		Lookups:  lookups,
		Seed:     1,
		HotSwaps: swaps,
	})
	if err != nil {
		return rep, fmt.Errorf("serve load %s: %w", scheme, err)
	}
	switch {
	case rep.QPS <= 0:
		return rep, fmt.Errorf("serve load %s: no throughput", scheme)
	case rep.Rejected > 0:
		return rep, fmt.Errorf("serve load %s: %d rejected lookups", scheme, rep.Rejected)
	case rep.Errored > 0:
		return rep, fmt.Errorf("serve load %s: %d errored lookups", scheme, rep.Errored)
	}
	return rep, nil
}

// runBigSweep produces the "big" section rows and enforces the PR-8
// acceptance gates in code: landmark must undercut fulltable on bytes/node at
// the largest n both serve, no spot-graded answer may exceed stretch 3
// (loadgen already fails the row, re-checked here), and in full mode the
// n=16384 landmark row — past the all-pairs ceiling — must build and serve.
func runBigSweep(quick bool) ([]BigBench, error) {
	type rowSpec struct {
		family, scheme string
		tables         bool
		n              int
	}
	var specs []rowSpec
	lookups := uint64(200_000)
	if quick {
		lookups = 10_000
		specs = []rowSpec{
			{"sparse", "fulltable", false, 256},
			{"sparse", "landmark", true, 256},
			{"gnhalf", "fulltable", false, 64},
			{"gnhalf", "compact", false, 64},
		}
	} else {
		for _, n := range []int{256, 1024, 4096} {
			specs = append(specs, rowSpec{"sparse", "fulltable", false, n})
		}
		for _, n := range []int{256, 1024, 4096, 16384} {
			specs = append(specs, rowSpec{"sparse", "landmark", true, n})
		}
		for _, n := range []int{256, 1024} {
			specs = append(specs, rowSpec{"gnhalf", "fulltable", false, n})
			specs = append(specs, rowSpec{"gnhalf", "compact", false, n})
		}
	}
	rows := make([]BigBench, 0, len(specs))
	for _, sp := range specs {
		row, err := runBigRow(sp.family, sp.scheme, sp.tables, sp.n, lookups)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	// Gate 1: at the largest sparse n served by both schemes, the tables
	// tier must be the smaller snapshot per node.
	perNode := func(scheme string) (float64, int) {
		best, bestN := 0.0, 0
		for _, r := range rows {
			if r.Family == "sparse" && r.Scheme == scheme && r.N > bestN {
				best, bestN = r.BytesPerNode, r.N
			}
		}
		return best, bestN
	}
	fullPN, fullN := perNode("fulltable")
	var lmPN float64
	for _, r := range rows {
		if r.Family == "sparse" && r.Scheme == "landmark" && r.N == fullN {
			lmPN = r.BytesPerNode
		}
	}
	if lmPN <= 0 || lmPN >= fullPN {
		return nil, fmt.Errorf("big: landmark %.1f bytes/node does not undercut fulltable %.1f at n=%d", lmPN, fullPN, fullN)
	}
	// Gate 2: zero stretch-3 violations across every spot-graded row.
	for _, r := range rows {
		if r.SpotGraded > 0 && r.MaxStretchMilli > 3000 {
			return nil, fmt.Errorf("big: %s/%s n=%d spot-graded max stretch %d‰ exceeds 3000‰", r.Family, r.Scheme, r.N, r.MaxStretchMilli)
		}
	}
	return rows, nil
}

// runBigRow builds one engine at the requested tier, times the build, and
// drives a validated closed loop against it. Full-tier rows use strict
// grading (observed stretch is exactly 1); tables-tier rows auto-select
// spot grading in loadgen.
func runBigRow(family, scheme string, tables bool, n int, lookups uint64) (BigBench, error) {
	rng := rand.New(rand.NewSource(42))
	var (
		g   *graph.Graph
		err error
	)
	if family == "sparse" {
		g, err = gengraph.SparseConnected(n, 8, rng)
	} else {
		g, err = gengraph.GnHalf(n, rng)
	}
	if err != nil {
		return BigBench{}, fmt.Errorf("big %s/%s n=%d: %w", family, scheme, n, err)
	}
	start := time.Now()
	var eng *serve.Engine
	if tables {
		eng, err = serve.NewTieredEngine(g, scheme)
	} else {
		eng, err = serve.NewEngine(g, scheme)
	}
	if err != nil {
		return BigBench{}, fmt.Errorf("big %s/%s n=%d: %w", family, scheme, n, err)
	}
	build := time.Since(start)
	srv := serve.NewServer(eng, serve.ServerOptions{StretchSampleEvery: -1})
	defer srv.Close()
	lrep, err := loadgen.Run(srv, loadgen.Config{
		Workers: 4,
		Lookups: lookups,
		Seed:    1,
	})
	if err != nil {
		return BigBench{}, fmt.Errorf("big %s/%s n=%d: %w", family, scheme, n, err)
	}
	size := eng.Current().ArenaSize()
	row := BigBench{
		Family:        family,
		N:             n,
		Scheme:        scheme,
		Tier:          eng.Tier(),
		BuildMs:       float64(build.Nanoseconds()) / 1e6,
		SnapshotBytes: size,
		BytesPerNode:  float64(size) / float64(n),
		Lookups:       lrep.Lookups,
		QPS:           lrep.QPS,
		SpotGraded:    lrep.SpotGraded,
	}
	if lrep.SpotGraded > 0 {
		row.MaxStretchMilli = lrep.SpotMaxStretchMilli
		row.MeanStretchMilli = lrep.SpotMeanStretchMilli
	} else {
		// Strictly validated rows answer with exact shortest paths.
		row.MaxStretchMilli, row.MeanStretchMilli = 1000, 1000
	}
	return row, nil
}

func run(quick bool, artefact, sectionsCSV, out string) error {
	sections, err := parseSections(sectionsCSV)
	if err != nil {
		return err
	}
	rep, err := runSuite(quick, artefact, sections)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench artefact %s written to %s (sections: %s)\n",
		artefact, out, strings.Join(rep.Sections, ","))
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "one timed iteration per measurement (verify smoke)")
	artefact := flag.String("artefact", "BENCH_pr2", "artefact name recorded in the report header")
	sections := flag.String("sections", "bfs,cache,resilience", "comma-separated measurement sections: "+strings.Join(knownSections, ","))
	out := flag.String("out", "-", "output path (default stdout)")
	flag.Parse()
	if err := run(*quick, *artefact, *sections, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
