// Command routetabd is the routing-table query daemon: it builds one scheme
// over a seeded (or file-loaded) topology, keeps it resident behind the
// serving engine's hot-swappable snapshot, and answers next-hop/route
// lookups over HTTP with built-in JSON metrics.
//
// Serving mode:
//
//	routetabd -n 256 -seed 1 -scheme fulltable -addr :7353
//
//	GET  /nexthop?src=3&dst=77      one lookup
//	POST /batch {"pairs":[[3,77],[5,9]]}   batched lookups
//	GET  /route?src=3&dst=77        full path trace
//	GET  /metrics                   metrics registry snapshot (JSON)
//	GET  /healthz                   liveness + snapshot version
//	POST /mutate {"op":"add|remove|toggle","u":1,"v":2}  topology change
//	                                (rebuild off-path, atomic hot swap)
//	POST /swap                      republish unchanged topology
//	POST /fail {"kind":"link","u":1,"v":2,"down":true}   failure event
//	                                (overlay + degraded detours now,
//	                                self-healing rebuild off-path)
//
// With -persist FILE every published snapshot is also saved through an
// atomic checksummed binary file (the RTARENA1 flat arena: one contiguous
// read restores it zero-copy); on startup the daemon warm-boots from it
// (same Seq, byte-identical tables, no cold rebuild) when the file matches
// the requested scheme. Overload rejections carry a Retry-After header and
// a retry_after_ms hint.
//
// With -bin-addr the daemon additionally serves the RTBIN1 length-prefixed
// binary batch protocol on a persistent-TCP listener beside HTTP:
//
//	routetabd -n 256 -addr :7353 -bin-addr :7354
//
// Binary clients (internal/serve/wire.Dial) pipeline framed batches over
// one connection into the same sharded pool, skipping JSON entirely.
// -pprof exposes GET /debug/pprof/* on the HTTP listener for live
// profiling; it is off by default so the daemon never leaks profiling
// endpoints unintentionally.
//
// Wire chaos mode (also the `make verify` wire smoke):
//
//	routetabd -wire-chaos -n 32 -seed 1 -lookups 20000
//
// races JSON-HTTP and binary-TCP clients against the same engine through
// real loopback listeners while snapshots swap mid-load, grading every
// answer on both protocols — exiting non-zero unless zero answers were
// incorrect or errored and both transports observed a swap.
//
// Chaos mode (also the `make chaos` CI gate):
//
//	routetabd -chaos -n 64 -seed 1 -lookups 200000 -chaos-bursts 5 -chaos-kills 2
//
// runs the serve-layer chaos harness in-process: seeded churn bursts driven
// through the self-healing repairer, shard stalls and batch drops through
// the server's chaos hook, and kill+restore cycles through the persistence
// layer — grading every answer and exiting non-zero unless zero lookups were
// answered incorrectly, every detour stayed within the +2-hop budget, every
// restore was byte-identical, and unavailability stayed under budget.
// -chaos-csv additionally writes the EXPERIMENTS.md E15 artefact row.
//
// Cluster mode: a serving daemon is a replication primary by default — every
// snapshot publication and failure event is appended to an in-memory WAL
// that peers stream over GET /cluster/wal, with GET /cluster/state for full
// bootstrap and GET /cluster/digest for anti-entropy checks. A replica joins
// with
//
//	routetabd -join http://primary:7353 -addr :7354
//
// bootstrapping from the primary's state and replaying its WAL (falling back
// to a fresh state fetch on truncation, corruption, or epoch change); it
// serves lookups locally but rejects /mutate, /swap, and /fail with 409 —
// mutation belongs to the primary. When the primary dies,
//
//	routetabd -promote http://replica:7354
//
// asks a replica to take over: POST /promote stops its sync loop, activates
// its repairer, and opens a fresh WAL under a bumped epoch — surviving
// replicas re-pointed at it observe the epoch change and resync.
//
// Cluster chaos mode (the `make cluster` and `make bigcluster` CI gates):
//
//	routetabd -cluster-chaos -n 64 -seed 1 -replicas 2 -lookups 200000
//	routetabd -cluster-chaos -scheme landmark -n 4096 -seed 1 -replicas 2 -lookups 20000
//
// runs the replicated chaos harness in-process: a primary plus -replicas
// followers under client-side failover, surviving replica partitions, a
// kill -9 of the primary recovered from its WAL, WAL corruption and
// truncation, and a primary kill + promotion — exiting non-zero unless zero
// answers were wrong, availability stayed within budget, and every member's
// tables were byte-identical at quiesce. The scheme picks the tier as -tier
// auto does: shortest-path schemes run the full tier on G(n,1/2) with every
// answer graded strictly; landmark runs the tables tier on a sparse
// topology (-avgdeg), every sampled answer spot-graded against BFS ground
// truth. -cluster-csv writes the EXPERIMENTS.md E16/E20 artefact row.
//
// Large-graph serving (the tables tier, DESIGN.md §15):
//
//	routetabd -scheme landmark -n 4096
//
// -tier auto selects the tables tier for table-capable schemes (landmark):
// snapshots carry the scheme's own o(n²) tables instead of the all-pairs
// matrix, distances are served as stretch-bounded estimates, and /healthz
// and /metrics expose snapshot_bytes and scheme_space_per_node. -topo auto
// switches graph generation from dense G(n,1/2) to a sparse connected
// topology (-avgdeg) above n=512. Tables-tier daemons are full cluster
// citizens: -join, -wal-dir, and -promote work unchanged, with WAL records
// and anti-entropy digests fingerprinting the encoded scheme tables instead
// of the matrix the tier never materialises.
//
// Bigsmoke mode (also the `make bigsmoke` CI gate):
//
//	routetabd -bigsmoke -n 4096 -seed 1 -lookups 10000 -workers 4 -swaps 2
//
// builds an n=4096 tables-tier landmark snapshot over a sparse topology and
// drives spot-graded load with connectivity-safe hot swaps — every sampled
// answer checked against on-demand BFS ground truth — exiting non-zero on
// any answer beyond stretch 3, an unreachable next hop, or a snapshot that
// is not o(n²).
//
// Sharded cluster mode (DESIGN.md §17): the source keyspace split across
// shard groups by a versioned consistent-hash shard map (RTSMAP1). Bootstrap
// the map, then start one restricted daemon per group:
//
//	routetabd -shard-map cluster.rtsmap -shard-groups 2 -n 4096
//	routetabd -shard 0 -shard-map cluster.rtsmap -n 4096 -addr :7353
//	routetabd -shard 1 -shard-map cluster.rtsmap -n 4096 -addr :7453
//
// Each group is an ordinary primary (replicas -join it as usual); its engine
// serves only owned sources, answering foreign ones with ErrWrongShard, and
// on the tables tier its snapshots carry only the owned rows — so per-shard
// state, replication, and resync bytes shrink with the shard. /healthz and
// /metrics expose shard_id, shard_count, shard_map_epoch, and
// rebalance_inflight.
//
//	routetabd -split 0 -shard-map cluster.rtsmap
//
// reshapes the map offline: group 0's widest range is halved, the upper half
// moves to a fresh group, and the file is rewritten atomically under a bumped
// epoch. The live in-process split (snapshot transfer, WAL catch-up,
// dual-read handoff) is shard.Cluster.Split.
//
// Shard chaos mode (also the `make shardchaos` CI gate):
//
//	routetabd -shard-chaos -n 4096 -seed 1 -shard-groups 2 -replicas 1 -lookups 20000
//
// runs the partitioned-cluster chaos harness: a sharded tables-tier cluster
// behind the scatter-gather front surviving a live shard split racing churn,
// per-group replica partitions, a wire corruption, and a shard-primary kill +
// promotion — every sampled answer graded, full cross-shard routes walked at
// quiesce — exiting non-zero on one incorrect answer, a stretch-3 violation,
// a shard below its availability floor, or non-converged digests.
// -shard-csv writes the EXPERIMENTS.md E21 artefact row.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/cluster/shard"
	"routetab/internal/cluster/walstore"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/keyspace"
	"routetab/internal/serve"
	"routetab/internal/serve/chaos"
	"routetab/internal/serve/httpapi"
	"routetab/internal/serve/wire"

	"math/rand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "routetabd:", err)
		os.Exit(1)
	}
}

type config struct {
	n       int
	seed    int64
	scheme  string
	tier    string
	topo    string
	avgdeg  float64
	file    string
	addr    string
	binAddr string
	pprofOn bool
	shards  int
	queue   int
	batch   int
	persist string
	// harness modes
	lookups  uint64
	workers  int
	swaps    int
	bigsmoke bool
	// chaos mode
	chaos       bool
	chaosStalls int
	chaosDrops  int
	chaosBursts int
	chaosKills  int
	chaosBudget float64
	chaosCSV    string
	wireChaos   bool
	// cluster
	join         string
	promote      string
	syncInterval time.Duration
	walKeep      int
	replicas     int
	clusterChaos bool
	clusterCSV   string
	// durable WAL + crash gate
	walDir   string
	walFsync string
	crash    bool
	// partitioned cluster (shard) mode
	shardID     int
	shardMapF   string
	split       int
	shardGroups int
	shardChaos  bool
	shardCSV    string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("routetabd", flag.ContinueOnError)
	cfg := &config{}
	fs.IntVar(&cfg.n, "n", 256, "graph size for the seeded G(n,1/2) topology")
	fs.Int64Var(&cfg.seed, "seed", 1, "topology seed")
	fs.StringVar(&cfg.scheme, "scheme", "fulltable", "scheme to serve: "+fmt.Sprint(serve.SchemeNames()))
	fs.StringVar(&cfg.tier, "tier", "auto", "snapshot tier: auto|full|tables (auto picks tables for table-capable schemes like landmark)")
	fs.StringVar(&cfg.topo, "topo", "auto", "seeded topology family: auto|gnhalf|sparse (auto picks sparse above 512 nodes)")
	fs.Float64Var(&cfg.avgdeg, "avgdeg", 8, "sparse topology: target average degree")
	fs.StringVar(&cfg.file, "graph", "", "edge-list file to load instead of generating")
	fs.StringVar(&cfg.addr, "addr", ":7353", "listen address (serving mode)")
	fs.StringVar(&cfg.binAddr, "bin-addr", "", "also serve the RTBIN1 binary batch protocol on this TCP address (empty = HTTP only)")
	fs.BoolVar(&cfg.pprofOn, "pprof", false, "expose GET /debug/pprof/* on the HTTP listener")
	fs.IntVar(&cfg.shards, "shards", 0, "lookup worker shards (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queue, "queue", 0, "per-shard queue capacity (0 = default)")
	fs.IntVar(&cfg.batch, "batch", 0, "max coalesced jobs per worker wake-up (0 = default)")
	fs.StringVar(&cfg.persist, "persist", "", "snapshot persistence file: save every published snapshot, warm-boot from it on start")
	fs.BoolVar(&cfg.bigsmoke, "bigsmoke", false, "run the large-graph spot-graded smoke (tables-tier landmark over a sparse topology) instead of serving HTTP")
	fs.BoolVar(&cfg.chaos, "chaos", false, "run the serve-layer chaos harness instead of serving HTTP")
	fs.IntVar(&cfg.chaosStalls, "chaos-stalls", 2, "chaos: shard stall injections (-1 disables)")
	fs.IntVar(&cfg.chaosDrops, "chaos-drops", 2, "chaos: batch drop windows (-1 disables)")
	fs.IntVar(&cfg.chaosBursts, "chaos-bursts", 5, "chaos: churn bursts from the seeded fault plan (-1 disables)")
	fs.IntVar(&cfg.chaosKills, "chaos-kills", 2, "chaos: kill+restore cycles through the persistence layer (-1 disables)")
	fs.Float64Var(&cfg.chaosBudget, "chaos-budget", 0.10, "chaos: max tolerated unavailable fraction")
	fs.StringVar(&cfg.chaosCSV, "chaos-csv", "", "chaos: also append the report as a CSV artefact to this file")
	fs.BoolVar(&cfg.wireChaos, "wire-chaos", false, "run the mixed-protocol (JSON + binary) chaos phase instead of serving HTTP")
	fs.StringVar(&cfg.join, "join", "", "join URL of a primary to replicate from (replica mode)")
	fs.StringVar(&cfg.promote, "promote", "", "ask the replica at this URL to promote itself to primary, then exit")
	fs.DurationVar(&cfg.syncInterval, "sync-interval", 50*time.Millisecond, "replica: WAL poll interval")
	fs.IntVar(&cfg.walKeep, "wal-keep", 4096, "primary: WAL records retained for replicas (older positions force a full resync)")
	fs.IntVar(&cfg.replicas, "replicas", 2, "cluster-chaos: replicas joined behind the primary")
	fs.BoolVar(&cfg.clusterChaos, "cluster-chaos", false, "run the replicated cluster chaos harness instead of serving HTTP")
	fs.StringVar(&cfg.clusterCSV, "cluster-csv", "", "cluster-chaos: also append the report as a CSV artefact to this file")
	fs.StringVar(&cfg.walDir, "wal-dir", "", "primary: durable segmented WAL directory (empty = in-memory WAL only)")
	fs.StringVar(&cfg.walFsync, "wal-fsync", "always", "primary: WAL fsync policy: always|batch|off (non-always policies bump the epoch on every restart)")
	fs.BoolVar(&cfg.crash, "crash", false, "run the crash-recovery matrix gate instead of serving HTTP")
	fs.IntVar(&cfg.shardID, "shard", -1, "serve one shard group: restrict the engine to the keyspace group <id> owns in -shard-map (-1 = unsharded)")
	fs.StringVar(&cfg.shardMapF, "shard-map", "", "shard map file (RTSMAP1); with -shard-groups and neither -shard nor -split, a fresh uniform map is written there")
	fs.IntVar(&cfg.split, "split", -1, "split group <id> in the -shard-map file (new group, atomic epoch bump), rewrite it atomically, and exit")
	fs.IntVar(&cfg.shardGroups, "shard-groups", 0, "shard groups: initial count for -shard-chaos and for -shard-map initialisation (0 = harness default)")
	fs.BoolVar(&cfg.shardChaos, "shard-chaos", false, "run the partitioned-cluster chaos harness instead of serving HTTP")
	fs.StringVar(&cfg.shardCSV, "shard-csv", "", "shard-chaos: also append the report as a CSV artefact to this file")
	lookups := fs.Int64("lookups", 100_000, "harness modes: total lookup target")
	fs.IntVar(&cfg.workers, "workers", 4, "harness modes: closed-loop client workers")
	fs.IntVar(&cfg.swaps, "swaps", 0, "bigsmoke, wire-chaos: snapshot hot-swaps to perform mid-load")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *lookups < 0 {
		return nil, fmt.Errorf("-lookups must be ≥ 0")
	}
	cfg.lookups = uint64(*lookups)
	return cfg, nil
}

func loadGraph(cfg *config) (*graph.Graph, error) {
	if cfg.file != "" {
		f, err := os.Open(cfg.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
	topo := cfg.topo
	if topo == "auto" {
		// A dense G(n,1/2) at thousands of nodes is millions of edges; large
		// graphs get the sparse connected family the tables tier targets.
		if cfg.n > 512 {
			topo = "sparse"
		} else {
			topo = "gnhalf"
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	switch topo {
	case "gnhalf":
		return gengraph.GnHalf(cfg.n, rng)
	case "sparse":
		return gengraph.SparseConnected(cfg.n, cfg.avgdeg, rng)
	default:
		return nil, fmt.Errorf("unknown -topo %q (auto|gnhalf|sparse)", cfg.topo)
	}
}

// resolveTier maps -tier onto a concrete snapshot tier for cfg.scheme:
// "auto" serves table-capable schemes (landmark) from compact tables and
// everything else from the full matrix.
func resolveTier(cfg *config) (string, error) {
	switch cfg.tier {
	case "auto":
		if serve.TableCapable(cfg.scheme) {
			return serve.TierTables, nil
		}
		return serve.TierFull, nil
	case "full":
		return serve.TierFull, nil
	case "tables":
		if !serve.TableCapable(cfg.scheme) {
			return "", fmt.Errorf("-tier tables: scheme %q has no table codec (table-capable: landmark)", cfg.scheme)
		}
		return serve.TierTables, nil
	default:
		return "", fmt.Errorf("unknown -tier %q (auto|full|tables)", cfg.tier)
	}
}

func run(args []string, out *os.File) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	switch {
	case cfg.promote != "":
		return runPromote(cfg, out)
	case cfg.chaos:
		return runChaos(cfg, out)
	case cfg.wireChaos:
		return runWireChaos(cfg, out)
	case cfg.crash:
		return runCrashGate(cfg, out)
	case cfg.clusterChaos:
		return runClusterChaos(cfg, out)
	case cfg.shardChaos:
		return runShardChaos(cfg, out)
	case cfg.split >= 0:
		return runSplitMap(cfg, out)
	case cfg.shardMapF != "" && cfg.shardID < 0 && cfg.join == "":
		return runInitMap(cfg, out)
	case cfg.bigsmoke:
		return runBigSmoke(cfg, out)
	case cfg.join != "":
		return runReplica(cfg, out)
	}
	eng, sh, err := openPrimaryEngine(cfg, out)
	if err != nil {
		return err
	}
	srv := serve.NewServer(eng, serve.ServerOptions{
		Shards:   cfg.shards,
		QueueCap: cfg.queue,
		MaxBatch: cfg.batch,
	})
	defer srv.Close()
	registerServingGauges(srv)

	rep := serve.NewRepairer(srv, serve.RepairOptions{})
	defer rep.Close()
	// A serving daemon is a replication primary by default: the WAL costs
	// nothing unless a peer streams it, and replicas can join at any time.
	// With -wal-dir the WAL is also journaled to durable segment files and
	// the boot runs the crash-recovery state machine: replay the WAL forward
	// over the (possibly older) persisted snapshot and resume the previous
	// epoch when the durability invariant held, else bump it so replicas
	// resync exactly once.
	var walLog *cluster.Log
	epoch := uint64(1)
	if cfg.walDir != "" {
		policy, err := walstore.ParsePolicy(cfg.walFsync)
		if err != nil {
			return err
		}
		log, rpt, err := cluster.RecoverPrimaryLog(eng, rep, cluster.RecoverConfig{
			Dir: cfg.walDir, Fsync: policy,
		})
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		fmt.Fprintf(out, "routetabd: wal %s: epoch=%d bumped=%v replayed=%d overlay=%d skipped=%d torn_bytes=%d resume_seq=%d (%s)\n",
			cfg.walDir, rpt.Epoch, rpt.EpochBumped, rpt.Replayed, rpt.Overlay,
			rpt.SkippedBelowSnap, rpt.TornBytes, rpt.ResumeSeq, rpt.Reason)
		walLog = log
		epoch = rpt.Epoch
	}
	pri, err := cluster.NewPrimaryAt(eng, srv, rep, epoch, walLog)
	if err != nil {
		return err
	}
	defer pri.Close()
	a := &api{srv: srv, rep: rep, pri: pri, wal: walLog, walKeep: cfg.walKeep, shard: sh}
	return serveHTTP(a, cfg, out)
}

// runCrashGate executes the crash-recovery matrix (the `make crash` CI gate)
// in-process and renders a pass/fail verdict, mirroring runChaos.
func runCrashGate(cfg *config, out *os.File) error {
	rep, err := chaos.RunCrash(chaos.CrashConfig{
		N:      cfg.n,
		Seed:   cfg.seed,
		Scheme: cfg.scheme,
	})
	return verdict(out, "crash", rep, err, "", nil)
}

// runReplica joins the primary at cfg.join and serves its replicated tables
// until SIGTERM (or an in-place promotion via POST /promote).
func runReplica(cfg *config, out *os.File) error {
	// A shard-group replica inherits its keyspace restriction through state
	// transfer from its primary; -shard/-shard-map here only attach the
	// placement to /healthz and /metrics.
	sh, err := loadShardInfo(cfg)
	if err != nil {
		return err
	}
	src := cluster.NewHTTPSource(cfg.join, nil)
	rpl, err := cluster.JoinReplica(src, cluster.ReplicaOptions{
		Server: serve.ServerOptions{
			Shards:   cfg.shards,
			QueueCap: cfg.queue,
			MaxBatch: cfg.batch,
		},
		SyncInterval: cfg.syncInterval,
	})
	if err != nil {
		return fmt.Errorf("join %s: %w", cfg.join, err)
	}
	defer rpl.Close() // safe after promotion: the stack lives on in the primary
	if cfg.persist != "" {
		if err := rpl.Engine().EnablePersist(cfg.persist); err != nil {
			return fmt.Errorf("enable persistence: %w", err)
		}
	}
	rpl.Start()
	registerServingGauges(rpl.Server())
	fmt.Fprintf(out, "routetabd: joined %s (epoch=%d, wal_seq=%d)\n",
		cfg.join, rpl.Epoch(), rpl.WalSeq())
	a := &api{srv: rpl.Server(), rep: rpl.Repairer(), rpl: rpl, walKeep: cfg.walKeep, shard: sh}
	return serveHTTP(a, cfg, out)
}

// runPromote is the client side of failover: ask the replica at cfg.promote
// to take over as primary, print its answer, exit.
func runPromote(cfg *config, out *os.File) error {
	url := strings.TrimRight(cfg.promote, "/") + "/promote"
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return err
	}
	fmt.Fprint(out, string(body))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote %s: %s", url, resp.Status)
	}
	return nil
}

// runClusterChaos executes the replicated chaos harness in-process (the
// `make cluster` and `make bigcluster` CI gates) and renders a pass/fail
// verdict.
func runClusterChaos(cfg *config, out *os.File) error {
	rep, err := chaos.RunCluster(chaos.ClusterConfig{
		N:        cfg.n,
		AvgDeg:   cfg.avgdeg,
		Seed:     cfg.seed,
		Scheme:   cfg.scheme,
		Replicas: cfg.replicas,
		Lookups:  cfg.lookups,
		Workers:  cfg.workers,
	})
	return verdict(out, "cluster chaos", rep, err, cfg.clusterCSV, chaos.WriteClusterCSV)
}

// openPrimaryEngine loads the -shard placement and opens the serving
// engine a primary starts from, with -persist saving every published
// snapshot from here on.
func openPrimaryEngine(cfg *config, out *os.File) (*serve.Engine, *shardInfo, error) {
	sh, err := loadShardInfo(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng, warm, err := openEngine(cfg, sh, out)
	if err != nil {
		return nil, nil, err
	}
	if cfg.persist != "" && !warm {
		if err := eng.EnablePersist(cfg.persist); err != nil {
			return nil, nil, fmt.Errorf("enable persistence: %w", err)
		}
	}
	return eng, sh, nil
}

// openEngine builds the serving engine, warm-booting from the persistence
// file when it exists and matches the requested scheme — same Seq,
// byte-identical tables, no cold rebuild. warm reports whether persistence is
// already re-enabled on the restored engine. With -shard the engine is
// keyspace-restricted to the group's owned set and always cold-builds: the
// shard map is the source of truth for ownership, and a persisted snapshot
// may carry a stale owned set from before a rebalance.
func openEngine(cfg *config, sh *shardInfo, out *os.File) (*serve.Engine, bool, error) {
	if sh != nil {
		g, err := loadGraph(cfg)
		if err != nil {
			return nil, false, err
		}
		tier, err := resolveTier(cfg)
		if err != nil {
			return nil, false, err
		}
		eng, err := serve.NewShardEngine(g, cfg.scheme, tier, sh.want)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(out, "routetabd: shard %d/%d (map epoch %d, %d owned sources)\n",
			sh.id, sh.count, sh.epoch, sh.want.Count())
		return eng, false, nil
	}
	if cfg.persist != "" {
		if _, err := os.Stat(cfg.persist); err == nil {
			eng, err := serve.RestoreEngine(cfg.persist)
			switch {
			case err != nil:
				fmt.Fprintf(out, "routetabd: persisted snapshot unusable (%v), cold-building\n", err)
			case eng.Scheme() != cfg.scheme:
				fmt.Fprintf(out, "routetabd: persisted snapshot is %s, want %s; cold-building\n", eng.Scheme(), cfg.scheme)
			default:
				if err := eng.EnablePersist(cfg.persist); err != nil {
					return nil, false, fmt.Errorf("re-enable persistence: %w", err)
				}
				snap := eng.Current()
				fmt.Fprintf(out, "routetabd: warm boot from %s (seq=%d, n=%d)\n", cfg.persist, snap.Seq, snap.N())
				return eng, true, nil
			}
		}
	}
	g, err := loadGraph(cfg)
	if err != nil {
		return nil, false, err
	}
	tier, err := resolveTier(cfg)
	if err != nil {
		return nil, false, err
	}
	var eng *serve.Engine
	if tier == serve.TierTables {
		eng, err = serve.NewTieredEngine(g, cfg.scheme)
	} else {
		eng, err = serve.NewEngine(g, cfg.scheme)
	}
	if err != nil {
		return nil, false, err
	}
	return eng, false, nil
}

// registerServingGauges exposes snapshot-level space figures on /metrics:
// snapshot_bytes is the current snapshot's full arena encoding size, and
// scheme_space_per_node is the routing scheme's own storage in bytes per
// node — the figure the tables tier exists to keep sub-linear in n.
func registerServingGauges(srv *serve.Server) {
	srv.Metrics().GaugeFunc("snapshot_bytes", func() int64 {
		return int64(srv.Engine().Current().ArenaSize())
	})
	srv.Metrics().GaugeFunc("scheme_space_per_node", func() int64 {
		snap := srv.Engine().Current()
		return int64(snap.SpaceBits() / 8 / snap.N())
	})
}

// registerClusterGauges exposes the serving tier and replication position on
// /metrics so operators can graph tables-tier lag alongside QPS: tier (0 =
// full matrix, 1 = scheme tables), wal_seq (primary: last appended record;
// replica: last applied position), and replica_lag_seq (how many records the
// replica was behind at its last sync; 0 on a primary). The gauges read
// through the api's role pointers, so an in-place promotion repoints them.
func registerClusterGauges(a *api) {
	m := a.srv.Metrics()
	m.GaugeFunc("tier", func() int64 {
		if a.srv.Engine().Tier() == serve.TierTables {
			return 1
		}
		return 0
	})
	m.GaugeFunc("wal_seq", func() int64 {
		pri, rpl := a.roles()
		switch {
		case pri != nil:
			return int64(pri.Log().LastSeq())
		case rpl != nil:
			return int64(rpl.WalSeq())
		}
		return 0
	})
	m.GaugeFunc("replica_lag_seq", func() int64 {
		_, rpl := a.roles()
		if rpl == nil {
			return 0
		}
		_, _, lastLag := rpl.Stats()
		return int64(lastLag)
	})
}

// shardInfo is the daemon's view of its place in a partitioned cluster: the
// group it serves, the shard map's shape, and the owned set the map assigns
// to it — kept so observability can report when replicated ownership has
// moved away from what the local map file says (a rebalance in flight).
type shardInfo struct {
	id    int
	count int
	epoch uint64
	want  *keyspace.Set
}

// loadShardInfo reads and validates the -shard-map file and materialises the
// owned set for -shard. Returns nil without -shard.
func loadShardInfo(cfg *config) (*shardInfo, error) {
	if cfg.shardID < 0 {
		return nil, nil
	}
	if cfg.shardMapF == "" {
		return nil, fmt.Errorf("-shard %d requires -shard-map", cfg.shardID)
	}
	blob, err := os.ReadFile(cfg.shardMapF)
	if err != nil {
		return nil, fmt.Errorf("shard map: %w", err)
	}
	m, err := shard.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("shard map %s: %w", cfg.shardMapF, err)
	}
	owned, err := m.OwnedSet(cfg.shardID)
	if err != nil {
		return nil, fmt.Errorf("shard map %s: %w", cfg.shardMapF, err)
	}
	return &shardInfo{id: cfg.shardID, count: m.Groups, epoch: m.Epoch, want: owned}, nil
}

// writeMapAtomic persists a shard map with the same write-then-rename
// discipline as snapshots: readers see either the old fully-framed map or the
// new one, never a torn file.
func writeMapAtomic(path string, m *shard.Map) error {
	blob, err := m.EncodeBytes()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runInitMap writes a fresh epoch-1 uniform shard map to -shard-map and
// exits — the bootstrap step before shard-group daemons are started.
func runInitMap(cfg *config, out *os.File) error {
	if cfg.shardGroups < 1 {
		return fmt.Errorf("-shard-map without -shard/-split initialises a map and needs -shard-groups ≥ 1")
	}
	if _, err := os.Stat(cfg.shardMapF); err == nil {
		return fmt.Errorf("shard map %s already exists (use -split to reshape it)", cfg.shardMapF)
	}
	m, err := shard.NewUniform(cfg.n, cfg.shardGroups)
	if err != nil {
		return err
	}
	if err := writeMapAtomic(cfg.shardMapF, m); err != nil {
		return err
	}
	fmt.Fprintf(out, "routetabd: wrote %s: %s\n", cfg.shardMapF, m)
	return nil
}

// runSplitMap carves a new group out of -split's group in the -shard-map
// file: decode, split under a bumped epoch, rewrite atomically, exit. Serving
// daemons pick the new placement up on restart; the in-process live-split
// path (snapshot transfer + WAL catch-up + dual-read handoff) is
// shard.Cluster.Split, exercised by -shard-chaos.
func runSplitMap(cfg *config, out *os.File) error {
	if cfg.shardMapF == "" {
		return fmt.Errorf("-split requires -shard-map")
	}
	blob, err := os.ReadFile(cfg.shardMapF)
	if err != nil {
		return fmt.Errorf("shard map: %w", err)
	}
	m, err := shard.Decode(blob)
	if err != nil {
		return fmt.Errorf("shard map %s: %w", cfg.shardMapF, err)
	}
	next, newID, err := m.Split(cfg.split)
	if err != nil {
		return err
	}
	if err := writeMapAtomic(cfg.shardMapF, next); err != nil {
		return err
	}
	moved, err := next.OwnedSet(newID)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "routetabd: split group %d → new group %d (%d keys moved, epoch %d → %d)\n",
		cfg.split, newID, moved.Count(), m.Epoch, next.Epoch)
	return nil
}

// runShardChaos executes the partitioned-cluster chaos harness (the
// `make shardchaos` CI gate) in-process and renders a pass/fail verdict.
func runShardChaos(cfg *config, out *os.File) error {
	rep, err := chaos.RunShard(chaos.ShardConfig{
		N:        cfg.n,
		AvgDeg:   cfg.avgdeg,
		Seed:     cfg.seed,
		Groups:   cfg.shardGroups,
		Replicas: cfg.replicas,
		Lookups:  cfg.lookups,
		Workers:  cfg.workers,
	})
	return verdict(out, "shardchaos", rep, err, cfg.shardCSV, chaos.WriteShardCSV)
}

// registerShardGauges exposes the daemon's shard placement on /metrics:
// shard_id / shard_count / shard_map_epoch from the loaded map, and
// rebalance_inflight = 1 while the engine's replicated owned set differs from
// what the local map file assigns this group — a handover has landed (or is
// landing) that the map file does not describe yet. No-op unsharded.
func registerShardGauges(a *api) {
	if a.shard == nil {
		return
	}
	m := a.srv.Metrics()
	m.GaugeFunc("shard_id", func() int64 { return int64(a.shard.id) })
	m.GaugeFunc("shard_count", func() int64 { return int64(a.shard.count) })
	m.GaugeFunc("shard_map_epoch", func() int64 { return int64(a.shard.epoch) })
	m.GaugeFunc("rebalance_inflight", func() int64 { return a.rebalanceInflight() })
}

// runBigSmoke executes the large-graph serving gate in-process and renders a
// pass/fail verdict: a tables-tier landmark build over a
// sparse seeded topology, a spot-graded closed loop with hot swaps, and an
// o(n²) space check.
func runBigSmoke(cfg *config, out *os.File) error {
	rep, err := chaos.RunBig(chaos.BigConfig{
		N:       cfg.n,
		AvgDeg:  cfg.avgdeg,
		Seed:    cfg.seed,
		Lookups: cfg.lookups,
		Workers: cfg.workers,
		Swaps:   cfg.swaps,
	})
	return verdict(out, "bigsmoke", rep, err, "", nil)
}

// runChaos executes the chaos harness in-process and renders a pass/fail
// verdict: the JSON report always prints; a broken invariant exits non-zero.
func runChaos(cfg *config, out *os.File) error {
	rep, err := chaos.Run(chaos.Config{
		N:                  cfg.n,
		Seed:               cfg.seed,
		Scheme:             cfg.scheme,
		Lookups:            cfg.lookups,
		Workers:            cfg.workers,
		Stalls:             cfg.chaosStalls,
		Drops:              cfg.chaosDrops,
		Bursts:             cfg.chaosBursts,
		Kills:              cfg.chaosKills,
		PersistPath:        cfg.persist,
		MaxUnavailableFrac: cfg.chaosBudget,
	})
	return verdict(out, "chaos", rep, err, cfg.chaosCSV, chaos.WriteCSV)
}

// runWireChaos executes the mixed-protocol chaos phase (the `make verify`
// wire smoke) in-process and renders a pass/fail verdict, mirroring runChaos:
// JSON and binary clients race the same engine through real listeners while
// snapshots swap mid-load, and every answer on both wires is graded.
func runWireChaos(cfg *config, out *os.File) error {
	rep, err := chaos.RunWire(chaos.WireConfig{
		N:               cfg.n,
		Seed:            cfg.seed,
		Scheme:          cfg.scheme,
		WorkersPerProto: cfg.workers,
		Lookups:         cfg.lookups,
		Swaps:           cfg.swaps,
	})
	return verdict(out, "wire chaos", rep, err, "", nil)
}

// verdict renders one harness run: the JSON report always prints, the CSV
// artefact row is appended to csvPath when it is set, a broken invariant
// exits non-zero, and a pass prints "<name> ok: <headline>".
func verdict[R interface {
	*T
	fmt.Stringer
}, T any](out io.Writer, name string, rep R, err error, csvPath string, writeCSV func(io.Writer, []R) error) error {
	if rep == nil {
		return err
	}
	blob, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		return merr
	}
	fmt.Fprintln(out, string(blob))
	if csvPath != "" {
		if werr := appendCSV(csvPath, func(w io.Writer) error { return writeCSV(w, []R{rep}) }); werr != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s ok: %s\n", name, rep)
	return nil
}

// appendCSV appends the rows produced by write (header + body) to path,
// dropping the header row when the file already has content — so repeated
// runs accumulate one artefact.
func appendCSV(path string, write func(io.Writer) error) error {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		body := buf.String()
		if i := strings.IndexByte(body, '\n'); i >= 0 {
			body = body[i+1:] // drop the header row when appending
		}
		_, err = f.WriteString(body)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// serveHTTP runs the daemon until SIGINT/SIGTERM, then drains gracefully and
// flushes a final persisted snapshot. With -bin-addr an RTBIN1 listener
// serves the binary batch protocol beside HTTP, sharing the same pool.
func serveHTTP(a *api, cfg *config, out *os.File) error {
	registerClusterGauges(a)
	registerShardGauges(a)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: newHandler(a, cfg.pprofOn)}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var ws *wire.Server
	if cfg.binAddr != "" {
		binLn, err := net.Listen("tcp", cfg.binAddr)
		if err != nil {
			hs.Close()
			return fmt.Errorf("binary listener: %w", err)
		}
		ws = wire.NewServer(a.srv)
		go func() {
			if err := ws.Serve(binLn); err != nil {
				errc <- fmt.Errorf("binary listener: %w", err)
			}
		}()
		fmt.Fprintf(out, "routetabd: binary protocol (RTBIN1) on %s\n", binLn.Addr())
	}
	srv := a.srv
	fmt.Fprintf(out, "routetabd: serving %s (n=%d, seq=%d, role=%s) on %s\n",
		srv.Engine().Scheme(), srv.Engine().Current().N(), srv.Engine().Current().Seq,
		a.role(), ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		if ws != nil {
			ws.Close()
		}
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "routetabd: %v, draining\n", sig)
	}
	return shutdownFlush(hs, ws, a, out)
}

// shutdownFlush is the SIGTERM tail: drain in-flight requests, close the
// binary listener, persist a final snapshot so the daemon warm-boots from
// exactly the state it was serving — even when the last publish-time save
// failed transiently — and fsync + finalize the open WAL segment so the next
// boot recovers a clean (untorn) log and resumes the epoch. No-ops without
// persistence or -wal-dir.
func shutdownFlush(hs *http.Server, ws *wire.Server, a *api, out *os.File) error {
	eng := a.srv.Engine()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if ws != nil {
		ws.Close()
	}
	if err := eng.FlushPersist(); err != nil {
		return fmt.Errorf("final snapshot flush: %w", err)
	}
	if saves, _, _ := eng.PersistStats(); saves > 0 {
		fmt.Fprintf(out, "routetabd: final snapshot persisted (seq=%d)\n", eng.Current().Seq)
	}
	if a.wal != nil {
		seq := a.wal.LastSeq()
		if err := a.wal.CloseWAL(); err != nil {
			return fmt.Errorf("final WAL finalize: %w", err)
		}
		fmt.Fprintf(out, "routetabd: wal finalized (seq=%d)\n", seq)
	}
	return nil
}

// api is the HTTP facade over one serving stack. Exactly one of pri/rpl is
// set (primary vs replica); a replica's POST /promote swaps rpl out for a
// fresh primary in place, so role reads go through the mutex.
type api struct {
	srv *serve.Server
	rep *serve.Repairer

	mu      sync.Mutex
	pri     *cluster.Primary
	rpl     *cluster.Replica
	wal     *cluster.Log // durable WAL (nil without -wal-dir)
	walKeep int

	shard *shardInfo // partitioned-cluster placement (nil unsharded)

	metricsPool sync.Pool // *bytes.Buffer for /metrics scrapes
}

// rebalanceInflight reports 1 while the engine's owned set has diverged from
// the local shard map's assignment (a replicated ownership handover the map
// file does not describe yet), else 0. An unrestricted engine on a sharded
// daemon also counts as in flight: the restriction has been lifted under it.
func (a *api) rebalanceInflight() int64 {
	if a.shard == nil {
		return 0
	}
	owned := a.srv.Engine().Owned()
	if owned == nil || !owned.Equal(a.shard.want) {
		return 1
	}
	return 0
}

// roles returns the current (primary, replica) pair; at most one is non-nil.
func (a *api) roles() (*cluster.Primary, *cluster.Replica) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pri, a.rpl
}

func (a *api) role() string {
	switch pri, rpl := a.roles(); {
	case pri != nil:
		return "primary"
	case rpl != nil:
		return "replica"
	default:
		return "standalone"
	}
}

// trimWAL enforces the -wal-keep retention bound after each mutation: a
// replica further behind than walKeep records gets ErrGone and falls back to
// a full state fetch.
func (a *api) trimWAL(pri *cluster.Primary) {
	if pri == nil || a.walKeep <= 0 {
		return
	}
	if last := pri.Log().LastSeq(); last > uint64(a.walKeep) {
		pri.Log().TruncateTo(last - uint64(a.walKeep))
	}
}

// errNotPrimary is the 409 every mutation endpoint returns on a replica:
// mutation belongs to the primary, and applying it locally would fork the
// replicated state.
var errNotPrimary = errors.New("replica: topology mutation belongs to the primary")

func newHandler(a *api, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /nexthop", a.nexthop)
	mux.HandleFunc("GET /route", a.route)
	mux.Handle("POST /batch", httpapi.NewBatchHandler(a.srv))
	mux.HandleFunc("GET /metrics", a.metrics)
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.HandleFunc("POST /mutate", a.mutate)
	mux.HandleFunc("POST /swap", a.swap)
	mux.HandleFunc("POST /fail", a.fail)
	mux.HandleFunc("POST /promote", a.promote)
	mux.Handle("/cluster/", cluster.NewHTTPHandler(func() cluster.Source {
		pri, _ := a.roles()
		if pri == nil {
			return nil
		}
		return pri
	}))
	if pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// promote handles POST /promote: turn this replica into the primary under a
// bumped epoch. Idempotence: promoting a member that is already primary
// answers 200 with its current epoch; a standalone daemon answers 409.
func (a *api) promote(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pri != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "role": "primary", "epoch": a.pri.Epoch(), "already": true,
		})
		return
	}
	if a.rpl == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("not a cluster member"))
		return
	}
	np, err := a.rpl.Promote()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	a.pri, a.rpl = np, nil
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "role": "primary", "epoch": np.Epoch(),
		"snapshot_seq": np.Engine().Current().Seq,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func intParam(r *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(r.URL.Query().Get(name))
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return v, nil
}

func (a *api) nexthop(w http.ResponseWriter, r *http.Request) {
	src, err := intParam(r, "src")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dst, err := intParam(r, "dst")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res := a.srv.NextHop(src, dst)
	httpapi.SetRetryAfter(w, res)
	writeJSON(w, httpapi.StatusOf(res), httpapi.ToJSON(src, dst, res))
}

func (a *api) route(w http.ResponseWriter, r *http.Request) {
	src, err := intParam(r, "src")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dst, err := intParam(r, "dst")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	snap := a.srv.Engine().Current()
	tr, err := snap.Route(src, dst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// DistEstimate is exact on the full tier and a stretch-bounded upper
	// bound on the tables tier, where no all-pairs matrix exists.
	writeJSON(w, http.StatusOK, map[string]any{
		"src": src, "dst": dst, "path": tr.Path, "hops": tr.Hops,
		"dist": snap.DistEstimate(src, dst), "snapshot_seq": snap.Seq,
	})
}

// metrics renders the registry snapshot through a pooled, pre-sized buffer:
// scrapes arrive on a fixed cadence with a near-constant body size, so
// steady-state encoding reuses one buffer instead of growing a fresh one
// per scrape.
func (a *api) metrics(w http.ResponseWriter, _ *http.Request) {
	buf, _ := a.metricsPool.Get().(*bytes.Buffer)
	if buf == nil {
		buf = bytes.NewBuffer(make([]byte, 0, 8<<10))
	}
	defer a.metricsPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a.srv.Metrics().Snapshot()); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (a *api) healthz(w http.ResponseWriter, _ *http.Request) {
	eng := a.srv.Engine()
	snap := eng.Current()
	saves, failures, lastErr := eng.PersistStats()
	body := map[string]any{
		"ok":                    true,
		"scheme":                snap.SchemeName(),
		"tier":                  snap.Tier,
		"n":                     snap.N(),
		"snapshot_seq":          snap.Seq,
		"snapshot_codec":        serve.CodecArena,
		"swaps":                 eng.Swaps(),
		"space_bits":            snap.SpaceBits(),
		"snapshot_bytes":        snap.ArenaSize(),
		"scheme_space_per_node": int64(snap.SpaceBits() / 8 / snap.N()),
		"persist_saves":         saves,
		"persist_failures":      failures,
	}
	if lastErr != nil {
		body["persist_last_error"] = lastErr.Error()
	}
	if a.rep != nil {
		// Staleness > 0 means the snapshot still routes through failed links
		// and degraded detours are covering the gap until the rebuild lands.
		body["repair_staleness"] = a.rep.Staleness()
		body["degraded"] = a.rep.Staleness() > 0
	}
	if a.shard != nil {
		body["shard_id"] = a.shard.id
		body["shard_count"] = a.shard.count
		body["shard_map_epoch"] = a.shard.epoch
		body["rebalance_inflight"] = a.rebalanceInflight()
	}
	pri, rpl := a.roles()
	body["role"] = a.role()
	switch {
	case pri != nil:
		body["epoch"] = pri.Epoch()
		body["wal_seq"] = pri.Log().LastSeq()
		body["replica_lag_seq"] = 0
		if a.wal != nil {
			durable, walFailures, walErr := a.wal.Durability()
			body["wal_durable"] = durable
			body["wal_failures"] = walFailures
			if walErr != nil {
				body["wal_last_error"] = walErr.Error()
			}
		}
	case rpl != nil:
		applied, resyncs, lastLag := rpl.Stats()
		body["epoch"] = rpl.Epoch()
		body["wal_seq"] = rpl.WalSeq()
		body["wal_applied"] = applied
		body["resyncs"] = resyncs
		body["replay_lag"] = lastLag
		body["replica_lag_seq"] = lastLag
	}
	writeJSON(w, http.StatusOK, body)
}

// failRequest is the POST /fail body: a link or node failure (or repair)
// event, the HTTP face of the faultinject.Target the repairer implements.
type failRequest struct {
	Kind string `json:"kind"` // link | node
	U    int    `json:"u"`
	V    int    `json:"v"`
	Down bool   `json:"down"`
}

func (a *api) fail(w http.ResponseWriter, r *http.Request) {
	if a.rep == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("no repairer attached"))
		return
	}
	pri, rpl := a.roles()
	if rpl != nil {
		writeErr(w, http.StatusConflict, errNotPrimary)
		return
	}
	var req failRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Route through the primary when there is one, so the event replicates.
	setLink, setNode := a.rep.SetLinkDown, a.rep.SetNodeDown
	if pri != nil {
		setLink, setNode = pri.SetLinkDown, pri.SetNodeDown
		defer a.trimWAL(pri)
	}
	var err error
	switch req.Kind {
	case "link":
		err = setLink(req.U, req.V, req.Down)
	case "node":
		err = setNode(req.U, req.Down)
	default:
		err = fmt.Errorf("unknown kind %q (link|node)", req.Kind)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":               true,
		"repair_staleness": a.rep.Staleness(),
	})
}

// mutateRequest is the POST /mutate body.
type mutateRequest struct {
	Op string `json:"op"` // add | remove | toggle
	U  int    `json:"u"`
	V  int    `json:"v"`
}

func (a *api) mutate(w http.ResponseWriter, r *http.Request) {
	pri, rpl := a.roles()
	if rpl != nil {
		writeErr(w, http.StatusConflict, errNotPrimary)
		return
	}
	if pri != nil {
		defer a.trimWAL(pri)
	}
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	snap, err := a.srv.Engine().Mutate(func(g *graph.Graph) error {
		switch req.Op {
		case "add":
			return g.AddEdge(req.U, req.V)
		case "remove":
			return g.RemoveEdge(req.U, req.V)
		case "toggle":
			if g.HasEdge(req.U, req.V) {
				return g.RemoveEdge(req.U, req.V)
			}
			return g.AddEdge(req.U, req.V)
		default:
			return fmt.Errorf("unknown op %q (add|remove|toggle)", req.Op)
		}
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot_seq": snap.Seq, "edges": snap.Graph.M()})
}

func (a *api) swap(w http.ResponseWriter, _ *http.Request) {
	pri, rpl := a.roles()
	if rpl != nil {
		writeErr(w, http.StatusConflict, errNotPrimary)
		return
	}
	if pri != nil {
		defer a.trimWAL(pri)
	}
	snap, err := a.srv.Engine().Reload()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshot_seq": snap.Seq})
}
