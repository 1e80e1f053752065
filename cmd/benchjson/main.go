// Command benchjson regenerates the checked-in performance artefacts. Each
// run selects measurement sections (-sections) and an artefact name
// (-artefact), so one binary produces all three:
//
//	BENCH_pr2.json  (`make bench`):     -sections bfs,cache,resilience
//	  ns/op for the two all-pairs BFS kernels at n ∈ {256, 1024}, the shared
//	  distance cache cold vs hit, and the E13 resilience-sweep wall time.
//	BENCH_pr4.json  (`make chaosbench`): -sections chaos
//	  graded chaos-harness reports (availability %, p99 under stall/chaos,
//	  kill-recovery time) for the fulltable and compact schemes on
//	  G(256, 1/2) under seeded churn bursts, shard stalls, batch drops, and
//	  kill+restore cycles; the run fails on any incorrect answer, any detour
//	  beyond +2 hops, any non-byte-identical restore, or a broken
//	  unavailability budget.
//	BENCH_pr6.json  (`make crashbench`): -sections wal
//	  durable WAL append throughput per fsync policy (always / batch / off)
//	  on a real on-disk segment store: ns per append and the implied
//	  appends/sec, quantifying what PolicyAlways — the only policy that may
//	  resume its epoch after a crash (DESIGN.md §13) — costs per record.
//
// BENCH_pr3, pr5 and pr7–pr10 are kept as records of sections that are
// retired: perfbench measures serving, replication and shard load, and the
// bounds those sections enforced are tests now (EXPERIMENTS.md names each).
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
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"math/rand"

	"routetab/internal/cluster/walstore"
	"routetab/internal/eval"
	"routetab/internal/gengraph"
	"routetab/internal/serve/chaos"
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

// Result is one measurement in the artefact.
type Result struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// Report is the artefact schema (BENCH_pr2.json, BENCH_pr4.json, BENCH_pr6.json).
type Report struct {
	Artefact   string   `json:"artefact"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Quick      bool     `json:"quick"`
	Sections   []string `json:"sections"`
	Results    []Result `json:"results,omitempty"`
	// Chaos carries the graded chaos-harness reports (section "chaos"):
	// availability, p99 under stall, and kill-recovery time per scheme. The
	// run fails if any lookup was answered incorrectly, any detour exceeded
	// the +2-hop budget, any restore was not byte-identical, or
	// unavailability broke its budget.
	Chaos []*chaos.Report `json:"chaos,omitempty"`
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
var knownSections = []string{"bfs", "cache", "resilience", "chaos", "wal"}

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

	// Chaos harness: the `make chaos` gate row — graded serving under
	// injected faults: stalls, drops, seeded churn bursts, a kill+restore
	// cycle — at one million lookups per scheme on G(256, 1/2) (quick: 20k on
	// G(64, 1/2)). The headline figures are availability %, p99 under chaos,
	// and recovery time after a kill.
	if sections["chaos"] {
		n, lookups := 256, uint64(1_000_000)
		if quick {
			n, lookups = 64, 20_000
		}
		var sc chaos.Scenario
		for _, g := range chaos.Gates {
			if g.Name == "chaos" {
				sc = g.Scenario
			}
		}
		sc.N, sc.Lookups = n, lookups
		for _, scheme := range []string{"fulltable", "compact"} {
			sc.Scheme = scheme
			crep, err := chaos.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("chaos %s: %w", scheme, err)
			}
			rep.Chaos = append(rep.Chaos, crep)
		}
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
