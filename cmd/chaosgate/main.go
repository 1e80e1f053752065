// Command chaosgate runs one of the repository's seeded chaos gates and
// renders its verdict: the JSON report always prints, a broken invariant
// exits non-zero, and a pass prints "<gate> ok: <headline>".
//
//	chaosgate [-n N] [-seed S] [-scheme S] [-lookups L] [-csv FILE] GATE
//
// GATE is a Makefile target name (`make <gate>` runs exactly this). Each gate
// runs its harness with the parameters below; -n, -seed, -scheme and
// -lookups override the row's values (the EXPERIMENTS.md artefacts need
// n=256, 1M lookups, one run per scheme, and seed 42), and -csv appends the
// report to an artefact file in the gate's CSV layout, writing the header
// only into an empty file.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"routetab/internal/serve/chaos"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaosgate:", err)
		os.Exit(1)
	}
}

// params are the values a gate row sets and the command line may override.
type params struct {
	n       int
	seed    int64
	scheme  string
	lookups uint64
}

// report is what every harness returns: a JSON-encodable pointer with a
// headline.
type report interface{ String() string }

// gate is one row: its Makefile target name, its parameters, its harness
// run, and the writer of its CSV artefact layout (nil when it has none).
type gate struct {
	name string
	params
	run func(p params) (report, error)
	csv func(w io.Writer, rep report) error
}

// gates is the table `make <gate>` runs, one row per Makefile target.
var gates = []gate{
	// Mixed-protocol smoke: JSON-HTTP and RTBIN1 binary-TCP clients race the
	// same engine through real loopback listeners while snapshots swap
	// mid-load; fails on any incorrect or errored answer on either wire, or
	// if either protocol missed the swaps.
	{"wiresmoke", params{24, 1, "fulltable", 20_000}, func(p params) (report, error) {
		return reportOf(chaos.RunNode(chaos.NodeConfig{N: p.n, Seed: p.seed, Scheme: p.scheme,
			Workers: 4, Lookups: p.lookups, Swaps: 2}))
	}, nil},
	// Stalls, drops, churn bursts, and a kill+restore cycle on a small graph;
	// fails on any incorrect answer, out-of-budget detour, non-identical
	// restore, or broken availability budget. The full artefact is
	// docs/chaos_n256.csv (E15).
	{"chaos", params{48, 1, "fulltable", 60_000}, func(p params) (report, error) {
		return reportOf(chaos.Run(chaos.Config{N: p.n, Seed: p.seed, Scheme: p.scheme, Lookups: p.lookups,
			Workers: 4, Stalls: 2, Drops: 2, Bursts: 5, Kills: 1}))
	}, csvOf(chaos.WriteCSV)},
	// Replicated chaos on the full tier: a primary + two replicas on a small
	// graph surviving replica partitions, a kill -9 of the primary recovered
	// from its WAL, a WAL corruption, a WAL truncation, and a primary kill +
	// promotion; fails on any incorrect answer, sub-99% availability, or
	// tables that are not byte-identical at quiesce. The full artefact is
	// docs/cluster_n256.csv (E16).
	{"cluster", params{32, 1, "fulltable", 40_000}, func(p params) (report, error) {
		return reportOf(chaos.RunCluster(chaos.ClusterConfig{N: p.n, Seed: p.seed, Scheme: p.scheme,
			Replicas: 2, Lookups: p.lookups, Workers: 4}))
	}, csvOf(chaos.WriteClusterCSV)},
	// Deterministic crash-recovery matrix (DESIGN.md §13, EXPERIMENTS.md
	// E17): every byte boundary of a multi-segment WAL schedule, and every
	// record boundary — clean and torn mid-frame — of an engine churn
	// schedule, must recover to the exact durable prefix under the original
	// epoch with a byte-identical (digest-equal) table.
	{"crash", params{24, 5, "fulltable", 0}, func(p params) (report, error) {
		return reportOf(chaos.RunCrash(chaos.CrashConfig{N: p.n, Seed: p.seed, Scheme: p.scheme}))
	}, nil},
	// Large-graph smoke: an n=4096 tables-tier landmark snapshot over a sparse
	// avg-degree-8 topology — sixteen times past the old n=256 ceiling, with
	// no all-pairs matrix anywhere — serves lookups over both wires with
	// connectivity-safe hot swaps, every answer spot-graded against on-demand
	// BFS ground truth; fails on any stretch > 3, unreachable next hop, or a
	// snapshot that is not o(n²).
	{"bigsmoke", params{4096, 1, "landmark", 10_000}, func(p params) (report, error) {
		return reportOf(chaos.RunNode(chaos.NodeConfig{N: p.n, Seed: p.seed, Scheme: p.scheme,
			Workers: 4, Lookups: p.lookups, Swaps: 2}))
	}, nil},
	// The cluster gate on the tables tier: a three-member landmark cluster on
	// an n=4096 sparse topology surviving the same faults, replicas replaying
	// edge diffs through landmark rebuilds and verifying the scheme-table CRC
	// on every record; fails on any spot-graded stretch-3 violation, sub-98%
	// availability, failed promotion, or scheme tables that are not
	// byte-identical at quiesce. The full artefact is
	// docs/bigcluster_n4096.csv (E20).
	{"bigcluster", params{4096, 1, "landmark", 20_000}, func(p params) (report, error) {
		return reportOf(chaos.RunCluster(chaos.ClusterConfig{N: p.n, Seed: p.seed, Scheme: p.scheme,
			Replicas: 2, Lookups: p.lookups, Workers: 4}))
	}, csvOf(chaos.WriteClusterCSV)},
	// Partitioned cluster: the n=4096 source keyspace split across two shard
	// groups (each a tables-tier primary/replica pair) behind the
	// scatter-gather front, surviving a live shard split racing churn,
	// per-group replica partitions, a wire corruption, and a shard-primary
	// kill + in-group promotion, with full cross-shard routes walked at
	// quiesce; fails on one incorrect answer, a stretch-3 violation, a shard
	// below 99% availability, or non-converged digests. The scheme is always
	// landmark. The full artefact is docs/shard_n4096.csv (E21).
	{"shardchaos", params{4096, 1, "landmark", 20_000}, func(p params) (report, error) {
		return reportOf(chaos.RunShard(chaos.ShardConfig{N: p.n, Seed: p.seed,
			Groups: 2, Replicas: 1, Lookups: p.lookups, Workers: 4}))
	}, csvOf(chaos.WriteShardCSV)},
}

// reportOf passes a harness result on as a report, keeping a nil report nil.
func reportOf[R interface {
	*T
	report
}, T any](rep R, err error) (report, error) {
	if rep == nil {
		return nil, err
	}
	return rep, err
}

// csvOf adapts a harness's CSV writer to one report.
func csvOf[R report](write func(io.Writer, []R) error) func(io.Writer, report) error {
	return func(w io.Writer, rep report) error { return write(w, []R{rep.(R)}) }
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaosgate", flag.ContinueOnError)
	n := fs.Int("n", 0, "override the gate's graph size (0 keeps it)")
	seed := fs.Int64("seed", 0, "override the gate's seed (0 keeps it)")
	scheme := fs.String("scheme", "", "override the gate's scheme")
	lookups := fs.Uint64("lookups", 0, "override the gate's lookup target (0 keeps it)")
	csvPath := fs.String("csv", "", "append the report to this CSV artefact (gates with a CSV layout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	for _, g := range gates {
		names = append(names, g.name)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: chaosgate [-n N] [-seed S] [-scheme S] [-lookups L] [-csv FILE] GATE (%s)", strings.Join(names, "|"))
	}
	name := fs.Arg(0)
	i := slices.Index(names, name)
	if i < 0 {
		return fmt.Errorf("unknown gate %q (%s)", name, strings.Join(names, "|"))
	}
	g := gates[i]
	if *csvPath != "" && g.csv == nil {
		return fmt.Errorf("gate %s has no CSV layout", name)
	}
	rep, err := g.run(params{cmp.Or(*n, g.n), cmp.Or(*seed, g.seed), cmp.Or(*scheme, g.scheme), cmp.Or(*lookups, g.lookups)})
	if rep == nil {
		return err
	}
	blob, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		return merr
	}
	fmt.Fprintln(out, string(blob))
	if *csvPath != "" {
		if werr := appendCSV(*csvPath, func(w io.Writer) error { return g.csv(w, rep) }); werr != nil {
			return errors.Join(err, werr)
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
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	body := buf.Bytes()
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		body = body[bytes.IndexByte(body, '\n')+1:]
	}
	_, err = f.Write(body)
	return errors.Join(err, f.Close())
}
