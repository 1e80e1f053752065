# Tier-1 verification plus the race-detector and resilience smoke layers.
# `make verify` is the full pre-merge gate (referenced from ROADMAP.md).

GO ?= go

.PHONY: verify lint vet build test perfbenchtest race smoke benchsmoke loadsmoke wiresmoke chaos cluster crash bigsmoke bigcluster shardchaos bench loadbench chaosbench clusterbench crashbench wirebench bigbench bigclusterbench shardbench clean

verify: lint vet build test perfbenchtest race smoke benchsmoke loadsmoke wiresmoke chaos cluster crash bigsmoke bigcluster shardchaos

# gofmt -l exits 0 even when files need formatting, so fail on any output.
# The second check is the WAL durability lint: on the journaling path a
# discarded Close or Sync error is a silent durability hole (the process
# keeps serving records the disk never accepted), so `_ = x.Close()` and
# bare `defer x.Close()` / `defer x.Sync()` are banned in the WAL sources.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	@walfiles=$$(ls internal/cluster/wal.go internal/cluster/recovery.go \
		internal/cluster/walstore/*.go | grep -v _test); \
	if grep -nE '(_ *= *[A-Za-z0-9_.]+\.(Close|Sync|CloseWAL|SyncWAL)\(\)|defer +[A-Za-z0-9_.()]+\.(Close|Sync|CloseWAL|SyncWAL)\(\))' $$walfiles; then \
		echo "WAL path discards a Close/Sync error (see above)"; exit 1; \
	fi
	$(GO) run ./cmd/hotpathlint .
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a module of its own (it reaches the repository through a
# replace directive), so the root `go test ./...` never enters it.
perfbenchtest:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Quick deterministic fault-injection sweep; the full artefact is
# docs/resilience_n64.csv (see EXPERIMENTS.md E13).
smoke:
	$(GO) run ./cmd/routetab resilience -n 32 -seed 1 -pairs 40 \
		-pmax 0.1 -pstep 0.05 -schemes fulltable,fullinfo \
		-out $(or $(TMPDIR),/tmp)/resilience_smoke.csv

# One-iteration pass over every benchmarked path (BFS kernels, distance
# cache, E13 sweep, serving-layer load, and the scheme builders' Go
# benchmarks); keeps the bench harness from rotting between releases.
benchsmoke:
	$(GO) run ./cmd/benchjson -quick -sections bfs,cache,resilience,serve,chaos,cluster,wal,wire,big,bigcluster,shard \
		-out $(or $(TMPDIR),/tmp)/bench_smoke.json
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/schemes/... ./internal/cluster/...

# Seconds-scale serving smoke through routetabd's loadgen mode: fixed seed,
# tiny graph, two mid-load hot-swaps; exits non-zero on any incorrect,
# rejected, or errored lookup, or zero throughput.
loadsmoke:
	$(GO) run ./cmd/routetabd -loadgen -n 32 -seed 1 -lookups 20000 \
		-workers 2 -swaps 2

# Seconds-scale mixed-protocol smoke: JSON-HTTP and RTBIN1 binary-TCP clients
# race the same engine through real loopback listeners while snapshots swap
# mid-load; exits non-zero on any incorrect or errored answer on either wire,
# or if either protocol missed the swaps.
wiresmoke:
	$(GO) run ./cmd/routetabd -wire-chaos -n 24 -seed 1 -lookups 10000 \
		-workers 2 -swaps 2

# Seconds-scale seeded chaos gate: stalls, drops, churn bursts, and a
# kill+restore cycle on a small graph; exits non-zero on any incorrect
# answer, out-of-budget detour, non-identical restore, or broken
# availability budget. The full artefact is docs/chaos_n256.csv (E15).
chaos:
	$(GO) run ./cmd/routetabd -chaos -n 48 -seed 1 -lookups 60000 \
		-workers 4 -chaos-stalls 2 -chaos-drops 2 -chaos-bursts 5 -chaos-kills 1

# Seconds-scale replicated chaos gate (full tier): a primary + two replicas
# on a small graph surviving replica partitions, a kill -9 of the primary
# recovered from its WAL, a WAL corruption, a WAL truncation, and a primary
# kill + promotion; exits non-zero on any incorrect answer, sub-99%
# availability, or tables that are not byte-identical at quiesce. The full
# artefact is docs/cluster_n256.csv (E16).
cluster:
	$(GO) run ./cmd/routetabd -cluster-chaos -n 32 -seed 1 -replicas 2 \
		-lookups 40000 -workers 4

# Deterministic crash-recovery matrix (DESIGN.md §13, EXPERIMENTS.md E17):
# every byte boundary of a multi-segment WAL schedule, and every record
# boundary — clean and torn mid-frame — of an engine churn schedule, must
# recover to the exact durable prefix under the original epoch with a
# byte-identical (digest-equal) table; exits non-zero on any violated
# crash point.
crash:
	$(GO) run ./cmd/routetabd -crash -n 24 -seed 5

# Seconds-scale large-graph gate: builds an n=4096 tables-tier landmark
# snapshot over a sparse avg-degree-8 topology — sixteen times past the old
# n=256 ceiling, with no all-pairs matrix anywhere — and serves 10k lookups
# with connectivity-safe hot swaps, every answer eligible for spot grading
# against on-demand BFS ground truth; exits non-zero on any stretch > 3,
# unreachable next hop, or a snapshot that is not o(n²).
bigsmoke:
	$(GO) run ./cmd/routetabd -bigsmoke -n 4096 -seed 1 -lookups 10000 \
		-workers 4 -swaps 2

# Seconds-scale large-graph cluster gate: the same replicated chaos harness
# as `make cluster`, on the tables tier — a three-member landmark cluster on
# an n=4096 sparse topology surviving replica partitions, a kill -9 of the
# primary recovered from its WAL, a WAL corruption on the wire, a truncation
# under lag, and a primary kill + promotion. Replicas replay edge diffs
# through full landmark rebuilds and verify the scheme-table CRC on every
# record; exits non-zero on any spot-graded stretch-3 violation, sub-98%
# availability, failed promotion, or scheme tables that are not
# byte-identical at quiesce. The full artefact is docs/bigcluster_n4096.csv
# (E20).
bigcluster:
	$(GO) run ./cmd/routetabd -cluster-chaos -scheme landmark -n 4096 -seed 1 \
		-replicas 2 -lookups 20000 -workers 4

# Seconds-scale partitioned-cluster gate: the n=4096 source keyspace split
# across two shard groups (each a tables-tier primary/replica pair) behind
# the scatter-gather front, surviving a live shard split racing churn,
# per-group replica partitions, a wire corruption, and a shard-primary kill +
# in-group promotion. Every sampled answer is graded against BFS ground
# truth and full cross-shard routes are walked at quiesce; exits non-zero on
# one incorrect answer, a stretch-3 violation, a shard below 99%
# availability, or non-converged digests. The full artefact is
# docs/shard_n4096.csv (E21).
shardchaos:
	$(GO) run ./cmd/routetabd -shard-chaos -n 4096 -seed 1 -shard-groups 2 \
		-replicas 1 -lookups 20000 -workers 4

# Regenerates the checked-in PR 2 performance artefact (see EXPERIMENTS.md
# for the methodology; numbers are host-dependent).
bench:
	$(GO) run ./cmd/benchjson -sections bfs,cache,resilience \
		-artefact BENCH_pr2 -out BENCH_pr2.json

# Regenerates the PR 3 serving-layer artefact (EXPERIMENTS.md E14): one
# million validated lookups per scheme on G(256,1/2) with ten snapshot
# hot-swaps mid-load, for fulltable and compact.
loadbench:
	$(GO) run ./cmd/benchjson -sections serve \
		-artefact BENCH_pr3 -out BENCH_pr3.json

# Regenerates the PR 4 chaos artefact (EXPERIMENTS.md E15): one million
# graded lookups per scheme on G(256,1/2) under seeded churn bursts, shard
# stalls, batch drops, and kill+restore cycles.
chaosbench:
	$(GO) run ./cmd/benchjson -sections chaos \
		-artefact BENCH_pr4 -out BENCH_pr4.json

# Regenerates the PR 5 cluster artefact (EXPERIMENTS.md E16): a three-member
# G(256,1/2) cluster per scheme under client-side failover, surviving
# replica partitions, WAL corruption/truncation, and a primary kill +
# promotion — recording per-member QPS, failover latency, and replay lag.
clusterbench:
	$(GO) run ./cmd/benchjson -sections cluster \
		-artefact BENCH_pr5 -out BENCH_pr5.json

# Regenerates the PR 6 durability artefact (EXPERIMENTS.md E17): durable WAL
# append throughput — ns per append and appends/sec — for each fsync policy
# (always / batch / off) on a real on-disk segment store.
crashbench:
	$(GO) run ./cmd/benchjson -sections wal \
		-artefact BENCH_pr6 -out BENCH_pr6.json

# Regenerates the PR 7 wire artefact (EXPERIMENTS.md E18): in-process,
# JSON-HTTP, and RTBIN1 binary-TCP serving throughput on G(256,1/2) at
# GOMAXPROCS 1/4/16, enforcing binary ≥ 2× JSON at GOMAXPROCS=1.
wirebench:
	$(GO) run ./cmd/benchjson -sections wire \
		-artefact BENCH_pr7 -out BENCH_pr7.json

# Regenerates the PR 8 large-graph artefact (EXPERIMENTS.md E19): the tier
# sweep — bytes/node, build time, spot-graded QPS, and observed stretch for
# fulltable vs landmark on sparse topologies up to n=16384 (fulltable capped
# at 4096) plus fulltable vs compact on dense G(n,1/2). Fails unless landmark
# undercuts fulltable on bytes/node at the largest common n with zero
# stretch-3 violations.
bigbench:
	$(GO) run ./cmd/benchjson -sections big \
		-artefact BENCH_pr8 -out BENCH_pr8.json

# Regenerates the PR 9 tables-tier cluster artefact (EXPERIMENTS.md E20): a
# three-member landmark cluster on an n=4096 sparse topology under the full
# replication failure matrix — recording failover latency, availability,
# replay lag, and the resync payload versus the hypothetical n² matrix a
# full-tier cluster would ship.
bigclusterbench:
	$(GO) run ./cmd/benchjson -sections bigcluster \
		-artefact BENCH_pr9 -out BENCH_pr9.json

# Regenerates the PR 10 shard artefact (EXPERIMENTS.md E21): the n=4096
# partitioned cluster under the shard failure matrix against a 3-member
# single-group replicated baseline on the same topology — aggregate QPS,
# per-shard availability, and per-shard resync payloads, enforcing every
# shard's resync bytes strictly below the baseline's.
shardbench:
	$(GO) run ./cmd/benchjson -sections shard \
		-artefact BENCH_pr10 -out BENCH_pr10.json

clean:
	$(GO) clean ./...
