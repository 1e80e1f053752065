# Tier-1 verification plus the race-detector and resilience smoke layers.
# `make verify` is the full pre-merge gate (referenced from ROADMAP.md).

GO ?= go

.PHONY: verify lint vet build test perfbenchtest race smoke benchsmoke wiresmoke chaos cluster crash bigsmoke bigcluster shardchaos bench chaosbench crashbench flipbench clean

verify: lint vet build test perfbenchtest race smoke benchsmoke wiresmoke chaos cluster crash bigsmoke bigcluster shardchaos

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

# One-iteration pass over every benchjson section (BFS kernels, distance
# cache, E13 sweep, graded chaos, WAL appends) and the scheme builders' Go
# benchmarks; keeps the bench harness from rotting between releases.
benchsmoke:
	$(GO) run ./cmd/benchjson -quick -sections bfs,cache,resilience,chaos,wal \
		-out $(or $(TMPDIR),/tmp)/bench_smoke.json
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/schemes/... ./internal/cluster/...

# The seven seeded chaos gates, each seconds-scale: the mixed-protocol wire
# smoke, single-node chaos, the replicated cluster on the full tier, the
# crash-recovery matrix, the n=4096 tables-tier smoke, the tables-tier
# cluster, and the partitioned cluster. Each is one row of cmd/chaosgate,
# whose comment says what the gate asserts; any broken invariant exits
# non-zero.
wiresmoke chaos cluster crash bigsmoke bigcluster shardchaos:
	$(GO) run ./cmd/chaosgate $@

# Regenerates the checked-in PR 2 performance artefact (see EXPERIMENTS.md
# for the methodology; numbers are host-dependent).
bench:
	$(GO) run ./cmd/benchjson -sections bfs,cache,resilience \
		-artefact BENCH_pr2 -out BENCH_pr2.json

# Regenerates the PR 4 chaos artefact (EXPERIMENTS.md E15): one million
# graded lookups per scheme on G(256,1/2) under seeded churn bursts, shard
# stalls, batch drops, and kill+restore cycles.
chaosbench:
	$(GO) run ./cmd/benchjson -sections chaos \
		-artefact BENCH_pr4 -out BENCH_pr4.json

# Regenerates the PR 6 durability artefact (EXPERIMENTS.md E17): durable WAL
# append throughput — ns per append and appends/sec — for each fsync policy
# (always / batch / off) on a real on-disk segment store.
crashbench:
	$(GO) run ./cmd/benchjson -sections wal \
		-artefact BENCH_pr6 -out BENCH_pr6.json

# The tables-tier flip cost (ROADMAP items 4 and 6): one Primary.Mutate on a
# half-owned landmark engine over SparseConnected(n, 8), n = 4096 and 16384,
# alone and followed by a replica's replay of its record, and landmark.Update
# alone at n = 1024, 4096 and 16384; at GOMAXPROCS 1, six runs each with
# ms/op and B/op. Not part of verify.
flipbench:
	$(GO) test -run '^$$' -bench '^BenchmarkTablesFlip$$' -benchmem -cpu 1 -count 6 ./internal/cluster
	$(GO) test -run '^$$' -bench '^BenchmarkUpdateSparse$$' -benchmem -cpu 1 -count 6 ./internal/schemes/landmark

clean:
	$(GO) clean ./...
